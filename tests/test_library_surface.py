"""The library is what the commands run: every public name in `src/` has a caller there.

Each public top-level function and class of `src/kgraphs/*.py` must be
referenced, as a name or an attribute, somewhere in `src/kgraphs` outside its
own definition and outside `__init__.py`.  A re-export is an import, not a
reference.  Code that only tests call belongs in `tests/oracles.py`, beside
the other references the tests compare the library with.

Every module also stays under `MAX_TOKENS` tokens as `tokenize` counts them.
Where bytecode is not cached, the modules are compiled as they are imported,
and the parser's freed token buffer raises glibc's dynamic mmap threshold; a
module of more than 8,192 parser tokens, compiled before numpy loads, raises
it past the 405 KiB block that numpy's import allocates, which then lands in
the brk heap and raises the peak RSS of every run.
"""

from __future__ import annotations

import ast
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kgraphs"
MAX_TOKENS = 8_000  # a margin under the parser's 8,192

# Public names that nothing in src/ calls, and why each stays there.
EXEMPT = {
    "edge_path": "the one-edge path constructor; the tests build their paths with it",
    "grid_skeleton": "the benchmark's workloads build their grid instances with it",
    "prepend": "the benchmark's tracer counts the calls of `boundary.prepend` by name",
    "inner_product": "the correspondence's right inner product, the paper's topological-1-graph side",
    "left_action": "the left action of vertex functions on the correspondence, the same side",
    "right_action": "the right action of vertex functions on the correspondence, the same side",
}


def unreferenced_public_names() -> dict[str, str]:
    """{name: module} of the public top-level definitions that src/ never references."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if not own.startswith("_"):
                    defined[own] = path.stem
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return {name: module for name, module in defined.items() if name not in referenced}


def test_every_public_name_in_src_has_a_caller_in_src():
    unreferenced = unreferenced_public_names()
    stray = {name: module for name, module in unreferenced.items() if name not in EXEMPT}
    assert not stray, f"called from no code in src/ (move them to tests/oracles.py): {stray}"
    assert sorted(unreferenced) == sorted(EXEMPT), "an exemption no longer needed"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_stays_under_the_token_limit(path):
    with path.open("rb") as fh:
        tokens = sum(1 for _ in tokenize.tokenize(fh.readline))
    assert tokens < MAX_TOKENS, f"{path.name} has {tokens} tokens: split it"

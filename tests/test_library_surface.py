"""The library is what the commands run: every public name in `src/` has a caller there.

Each public top-level function and class of `src/kgraphs/*.py` must be
referenced, as a name or an attribute, somewhere in `src/kgraphs` outside its
own definition and outside `__init__.py`.  A re-export is an import, not a
reference.  Code that only tests call belongs in `tests/oracles.py`, beside
the other references the tests compare the library with.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kgraphs"

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

"""The exact `boundary` report as text; `kgraphs.cli` imports it only to write one."""

import json
from collections.abc import Iterator

from . import boundary as bnd
from .paths import path_sort_key

# An element's record in the `boundary` report at depth 0: the texts before and after its entries.
_RECORD = (
    '{\n  "boundary": %s,\n  "certificate": {\n    "entries": [',
    '\n    ],\n    "status": "%s"\n  },\n  "element": {\n    "degree": %s,\n    "prefixes": [%s\n    ],\n'
    '    "truncated": false\n  }\n}',
)


def boundary_chunks(space: bnd.FinitePathSpace) -> Iterator[str]:
    """The exact space's `boundary` report as text, one piece per element record: the text of
    `json.dumps(report, sort_keys=True, indent=2) + "\\n"` for the report of `tests/oracles.py`
    (`boundary_report`: the boundary size by the source rule, the vertex classes, and per element
    its `element_json`, verdict and certificate).  Every obligation is found before a piece is
    read, so a failing search raises before `--out` is opened.  A value nested at depth d reads
    as at depth 0 with 2d more spaces after each newline, so each path is rendered once per depth
    it is cited at, each set and tail's obligations once, and a record joins them."""
    size, classes = len(bnd.boundary_paths(space)), bnd.classify_vertices(space.skeleton).to_json()
    obligations = {id(y): space.obligations(y) for y in space.elements}
    head = json.dumps({"boundary_size": size, "classification": classes}, sort_keys=True, indent=2)

    def records():
        n = ["\n" + "  " * d for d in range(8)]  # n[d] starts a line at depth d
        ints = lambda c, d: f"[{n[d + 1]}" + f",{n[d + 1]}".join(map(str, c)) + f"{n[d]}]"
        p6 = {id(p): _path_text(p, n[6]) for p in space.elements}  # prefix heads, witnesses
        p7 = {i: text.replace("\n", n[1]) for i, text in p6.items()}
        members = {id(s): s for found in obligations.values() for s, _ in found}  # each set's, once
        sets = {  # per set, its entry's text from "set" to "witness"
            i: f',{n[6]}"set": [{n[7]}' + f",{n[7]}".join(p7[id(p)] for p in s)
            + f'{n[6]}],{n[6]}"vertex": {json.dumps(s[0].range)},{n[6]}"witness": '
            for i, s in members.items()
        }
        texts = {  # per tail, its obligations' set and witness texts
            i: [(sets[id(s)], "null" if w is None else p6[id(w)]) for s, w in found]
            for i, found in obligations.items()
        }
        opening, closing = (text.replace("\n", n[2]) for text in _RECORD)
        yield head[:-2] + ',\n  "elements": ['
        for i, x in enumerate(space.elements):
            row, entries = space.factors[i], []
            for m, (_, tail) in row.items():
                at = f',{n[5]}{{{n[6]}"at": {ints(m, 6)}'
                for set_text, witness in texts[id(tail)]:
                    entries += (at, set_text, witness, n[5] + "}")
                if witness == "null":
                    break
            entries[0], verdict = entries[0][1:], witness != "null"
            pairs = sorted(row.items())
            prefixes = ",".join(f"{n[5]}[{n[6]}{ints(m, 6)},{n[6]}{p6[id(h)]}{n[5]}]" for m, (h, _) in pairs)
            status, degree = "boundary" if verdict else "not_boundary", ints(x.degree.coords, 4)
            start = ("," if i else "") + n[2] + opening % json.dumps(verdict)
            yield "".join((start, *entries, closing % (status, degree, prefixes)))
        yield f"{n[1]}]\n}}\n" if space.elements else "]\n}\n"

    return records()


def boundary_lines(space: bnd.FinitePathSpace) -> tuple[str]:
    """The exact space's `--format text` listing: regular vertices, verdicts (source rule), size."""
    kept = {id(x) for x in bnd.boundary_paths(space)}  # the boundary paths are the space's own
    lines = [f"vertex classes: regular={list(bnd.classify_vertices(space.skeleton).regular)}"]
    lines += (f"  {path_sort_key(x)}: {'boundary' if id(x) in kept else 'interior'}" for x in space)
    return ("\n".join(lines) + f"\nboundary size: {len(kept)}\n",)


def _path_text(p: bnd.Path, n: str) -> str:
    """`json.dumps(p.to_json(), sort_keys=True, indent=2)` nested where `n` starts a line."""
    m = n + "    "  # where each block starts a line
    blocks = f",{m}".join(f"[{m}  {f',{m}  '.join(map(json.dumps, b))}{m}]" if b else "[]" for b in p.blocks)
    return f'{{{n}  "blocks": [{m}{blocks}{n}  ],{n}  "range": {json.dumps(p.range)}{n}}}'

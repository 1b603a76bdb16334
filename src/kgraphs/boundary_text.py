"""The `boundary` report as text; `kgraphs.cli` imports it only to write one.

Both modes write `json.dumps(report, sort_keys=True, indent=2) + "\\n"` for the dicts that
`tests/oracles.py` builds (`boundary_report`, `truncated_report`): a head, one piece per element
record, a tail.  A value nested at depth d reads as at depth 0 with 2d more spaces after each
newline, so each path is rendered once per depth it is cited at (`_path_text`) and a record
joins the texts.  An exact record adds the element's verdict and certificate (`_obligations`);
a truncated one its source's markers: per color whether an edge extends it (`extendable`), and
"inf" in the degree where the color grows forever (`Skeleton.cycle_colors`).
"""

import json
from collections.abc import Iterator

from . import boundary as bnd
from .paths import path_sort_key, source
from .skeleton import Degree

# An element's record at depth 0, exact (the texts before and after its entries) and truncated.
_RECORD = (
    '{\n  "boundary": %s,\n  "certificate": {\n    "entries": [',
    '\n    ],\n    "status": "%s"\n  },\n  "element": {\n    "degree": %s,\n    "prefixes": [%s\n    ],\n'
    '    "truncated": false\n  }\n}',
)
_TRUNCATED = '{\n  "degree": %s,\n  "extendable": %s,\n  "prefixes": [%s\n  ],\n  "truncated": true\n}'
_NOTE = "boundary membership is undecided at a truncation bound"

_N = ["\n" + "  " * d for d in range(8)]  # _N[d] starts a line at depth d


def _items(tokens, d: int) -> str:
    """A non-empty list of rendered `tokens` (each read by `str`) whose key sits at depth d."""
    return f"[{_N[d + 1]}" + f",{_N[d + 1]}".join(map(str, tokens)) + f"{_N[d]}]"


def _prefixes(row: dict, paths: dict, d: int) -> str:
    """An element's prefix pairs at depth d, from its row of `factors` and its heads' `paths` texts."""
    n, m = _N[d], _N[d + 1]
    return ",".join(f"{n}[{m}{_items(c, d + 1)},{m}{paths[id(h)]}{n}]" for c, (h, _) in sorted(row.items()))


def boundary_chunks(space: bnd.FinitePathSpace, bound: Degree | None = None) -> Iterator[str]:
    """The space's `boundary` report, one piece per element record between a head and a tail; a
    truncated space is listed with the `bound` it was enumerated at.  Every obligation is found
    before a piece is read, so a failing search raises before `--out` is opened."""
    head: dict = {"classification": bnd.classify_vertices(space.skeleton).to_json()}
    if space.is_exact:
        head["boundary_size"] = len(bnd.boundary_paths(space))
        records, tail = _exact_records(space, _obligations(space)), {}
    else:
        head.update(bound=list(bound.coords), boundary_size=None)
        records, tail = _truncated_records(space), {"mode": "truncated", "note": _NOTE}
    return _listing(head, records, tail)


def _listing(head: dict, records: Iterator[str], tail: dict) -> Iterator[str]:
    yield json.dumps(head, sort_keys=True, indent=2)[:-2] + ',\n  "elements": ['
    close = "]"
    for i, record in enumerate(records):
        yield ("," if i else "") + _N[2] + record
        close = _N[1] + "]"
    yield close + ("," + json.dumps(tail, sort_keys=True, indent=2)[1:] if tail else "\n}") + "\n"


def _obligations(space: bnd.FinitePathSpace) -> dict[int, list]:
    """Per element y of an exact space, by id: (members, first member that is a prefix of y, or
    None) per minimal exhaustive set at r(y), in order, up to the first None; the sets are
    searched once per range vertex, from the space's table."""
    sk, out = space.skeleton, {}
    sets = {v: bnd.minimal_exhaustive_sets(sk, v, space) for v in space.by_range}
    for y, row in zip(space.elements, space.factors):
        found = out[id(y)] = []
        for ex_set in sets[y.range]:
            prefixes = (p for p in ex_set.members if row.get(p.degree.coords, (None,))[0] is p)
            found.append((ex_set.members, next(prefixes, None)))
            if found[-1][1] is None:
                break
    return out


def _exact_records(space: bnd.FinitePathSpace, obligations: dict[int, list]) -> Iterator[str]:
    n = _N
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
    for x, row in zip(space.elements, space.factors):
        entries = []
        for m, (_, tail) in row.items():
            at = f',{n[5]}{{{n[6]}"at": {_items(m, 6)}'
            for set_text, witness in texts[id(tail)]:
                entries += (at, set_text, witness, n[5] + "}")
            if witness == "null":
                break
        entries[0], verdict = entries[0][1:], witness != "null"
        status, degree = "boundary" if verdict else "not_boundary", _items(x.degree.coords, 4)
        yield "".join((opening % json.dumps(verdict), *entries, closing % (status, degree, _prefixes(row, p6, 5))))


def _truncated_records(space: bnd.FinitePathSpace) -> Iterator[str]:
    sk, colors = space.skeleton, range(1, space.skeleton.rank + 1)
    p5 = {id(p): _path_text(p, _N[5]) for p in space.elements}  # prefix heads
    record = _TRUNCATED.replace("\n", _N[2])
    for x, row in zip(space.elements, space.factors):
        tail = source(sk, x)
        grows, edges = sk.cycle_colors[tail], sk.edges_by_range[tail]
        degree = ['"inf"' if c in grows else k for c, k in zip(colors, x.degree.coords)]
        extendable = [json.dumps(any(e.color == c for e in edges)) for c in colors]
        yield record % (_items(degree, 3), _items(extendable, 3), _prefixes(row, p5, 4))


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

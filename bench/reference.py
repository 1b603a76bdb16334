"""A fixed reference job that gauges how fast the host runs right now.

The benchmark's host is shared, and its speed drifts by a quarter or more
over tens of seconds: the same `cli.main` call takes 1.3 s in one minute and
2.1 s in the next.  `run.py` times this reference between jobs and divides
each job's time by the reference times on either side of it, so that the
drift common to both cancels.

The reference does the kinds of work the program does, on fixed data that
depends on nothing outside this file: dict and tuple lookups with complex
arithmetic (like `algebra.convolve`), subset walks over small sets of ints
(like the boundary subset search), attribute access and equality on small
objects (like the groupoid loops), and JSON encoding (like the reports).
No string is hashed, so its work does not depend on PYTHONHASHSEED.
"""

from __future__ import annotations

import json
import random
import time
from itertools import combinations

_rng = random.Random(509445)

_ELEMENTS = [
    (_rng.randrange(24), (_rng.randrange(4), _rng.randrange(4)), _rng.randrange(24))
    for _ in range(240)
]
_INDEX = {e: i for i, e in enumerate(_ELEMENTS)}
_COEFFICIENTS = {i: complex(_rng.random(), _rng.random()) for i in range(len(_ELEMENTS))}
_POOL = list(range(14))
_COVER = [frozenset(_rng.sample(range(40), 6)) for _ in _POOL]
_DOCUMENT = {
    "elements": [
        {"x": x, "m": list(m), "y": y, "boundary": i % 3 == 0}
        for i, (x, m, y) in enumerate(_ELEMENTS * 3)
    ]
}


class _Arrow:
    __slots__ = ("x", "m", "y")

    def __init__(self, x, m, y):
        self.x, self.m, self.y = x, m, y

    def __eq__(self, other):
        return self.x == other.x and self.m == other.m and self.y == other.y


_ARROWS = [_Arrow(*e) for e in _ELEMENTS]


def _convolve() -> int:
    acc: dict[int, complex] = {}
    right = list(_COEFFICIENTS.items())
    for ia, ca in _COEFFICIENTS.items():
        a = _ELEMENTS[ia]
        for ib, cb in right:
            b = _ELEMENTS[ib]
            if a[2] % 5 != b[0] % 5:
                continue
            label = (a[0], tuple(p + q for p, q in zip(a[1], b[1])), b[2])
            idx = _INDEX.get(label, -1)
            acc[idx] = acc.get(idx, 0j) + ca * cb
    return len(acc)


def _subsets() -> int:
    found = 0
    for size in range(1, 6):
        for combo in combinations(_POOL, size):
            covered: set[int] = set()
            for i in combo:
                covered |= _COVER[i]
            found += len(covered) >= 20
    return found


def _compare() -> int:
    return sum(1 for a in _ARROWS for b in _ARROWS if a == b)


def _encode() -> int:
    return len(json.dumps(_DOCUMENT, indent=1))


def reference() -> float:
    """Seconds one pass of the reference work takes now."""
    start = time.perf_counter()
    _convolve()
    _subsets()
    _compare()
    _encode()
    return time.perf_counter() - start

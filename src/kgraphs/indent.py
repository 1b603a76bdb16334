"""Indent compact JSON text as `json.dumps(..., indent=2)` does, with numpy.

CPython runs its C JSON encoder only without `indent`, so `kgraphs.cli` encodes a report
compactly (`cli._compact`; a circular one raises `RecursionError`) and, where the text is
longer than one block, imports this module and re-indents it here.

`indent_blocks` takes the C encoder's output with separators "," and ": "
and yields, block by block, the bytes the pure-Python encoder writes with
`indent=2`: outside string literals a newline and two spaces per level go
after each comma and each opener of a non-empty container, and before each
closer of one; `[]` and `{}` stay as they are.

The text is ASCII (`ensure_ascii`), and a quote delimits a literal unless a
backslash escapes it: with backslash pairs blanked first, a backslash left
just before a quote escapes it.  The depth, the in-literal flag and a pending
escape carry from block to block, and the character after a block tells
whether a closer follows it.  Index arrays over a whole report are
allocated outside Python's arenas: one pass per report raised the peak RSS
of the `tree-grid-torus` benchmark from 47.4 to 59.2 MB, hence the blocks.

Per block, the bracket steps are masked by a multiply with the outside-literal
flags, the depth and the output offsets are int32 running sums (`np.cumsum`
widens to int64 by default), and the width of each character's output (1, or
2 plus the indent after a break) is formed in place in the depth array, so a
block allocates few temporaries beside its output.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# A `bytes.translate` table: 1 for an opener, -1 (as int8) for a closer, else 0.
_NESTING = bytes(1 if b in b"[{" else 255 if b in b"]}" else 0 for b in range(256))


def indent_blocks(compact: str, block: int) -> Iterator[str]:
    """Yield `compact` indented by 2, `block` characters of it at a time, then "\\n"."""
    depth, quoted, escaped = 0, False, False
    for start in range(0, len(compact), block):
        raw = compact[start : start + block].encode("ascii")
        masked = (b" " + raw[1:] if escaped else raw).replace(b"\\\\", b"  ")
        escaped = masked.endswith(b"\\")
        c = np.frombuffer(masked, np.uint8)
        delimiter = c == ord('"')
        delimiter[1:] &= c[:-1] != ord("\\")
        outside = np.logical_xor.accumulate(delimiter)
        if not quoted:
            np.logical_not(outside, out=outside)
        step = np.frombuffer(masked.translate(_NESTING), np.int8) * outside
        level = np.cumsum(step, dtype=np.int32)
        level += depth
        depth, quoted = int(level[-1]), not outside[-1]
        closes_next = np.empty_like(outside)
        closes_next[:-1] = step[1:] < 0
        after = compact[start + block : start + block + 1]
        closes_next[-1] = after in ("]", "}") and not quoted
        breaks = c == ord(",")
        breaks &= outside
        breaks |= (step > 0) ^ closes_next
        width = level  # in place: 1, or 2 + 2 * indent after a break
        width -= closes_next
        width *= 2
        width += 1
        width *= breaks
        width += 1
        at = np.cumsum(width, dtype=np.int32)
        out = np.full(int(at[-1]), ord(" "), np.uint8)
        at -= width
        out[at] = np.frombuffer(raw, np.uint8)
        out[np.compress(breaks, at) + 1] = ord("\n")
        yield out.tobytes().decode("ascii")
    yield "\n"

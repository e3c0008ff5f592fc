"""Reading and writing the ".hg" hypergraph text format.

Line 1 is the vertex count n in decimal.  Each subsequent nonempty line not
starting with '#' is one edge as space-separated 0-based vertex indices in
strictly increasing order.  Writes list edges in lexicographic order, use LF
line endings, and are bit-exact for a given hypergraph.
"""

from __future__ import annotations

from .core import Hypergraph
from .errors import ParseError


def write_hypergraph(g: Hypergraph) -> str:
    lines = [str(g.n)]
    lines.extend(" ".join(str(v) for v in e) for e in g.edges)
    return "\n".join(lines) + "\n"


def read_hypergraph(text: str) -> Hypergraph:
    lines = text.split("\n")
    n = None
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise ParseError(f"expected vertex count, got {line!r}", lineno)
            if n < 0:
                raise ParseError(f"vertex count must be >= 0, got {n}", lineno)
            continue
        try:
            verts = tuple(int(tok) for tok in line.split())
        except ValueError:
            raise ParseError(f"edge line is not all integers: {line!r}", lineno)
        for prev, cur in zip(verts, verts[1:]):
            if cur <= prev:
                raise ParseError(
                    f"edge vertices must be strictly increasing: {line!r}", lineno)
        for v in verts:
            if v < 0 or v >= n:
                raise ParseError(f"vertex index {v} out of range 0..{n - 1}", lineno)
        if not verts:
            raise ParseError("empty edge", lineno)
        if verts in seen:
            raise ParseError(f"duplicate edge: {line!r}", lineno)
        seen.add(verts)
        edges.append(verts)
    if n is None:
        raise ParseError("missing vertex count header", max(1, len(lines)))
    return Hypergraph(n, edges)

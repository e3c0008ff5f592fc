"""Exhaustive generation of d-regular r-uniform hypergraphs on n labeled
vertices, optionally up to isomorphism.

Edges are chosen in increasing lexicographic order while tracking residual
degrees.  At each step the lowest vertex v that still needs edges must be the
smallest vertex of the next edge, because every vertex below v is full and
every later edge is lexicographically larger.  So the search branches only
over the candidates whose smallest vertex is v, one contiguous block of the
sorted candidate list, skipping those that touch a full vertex.  A graph is
emitted once it has n*d/r edges.  Emission order is the lexicographic order
of the sorted edge lists, and deterministic.  The search tree can be
partitioned by first-edge prefix for work-splitting.

The last edge is forced.  With n*d/r - 1 edges chosen the residual degrees
sum to r, so a graph completes only when exactly r vertices each need one
more edge, and those r vertices are the last edge.  The search looks their
mask up in a mask -> candidate index table built once per run and accepts it
when its index is past the previous edge's.  It does so inside the candidate
loop of the last-but-one level, from the mask of vertices of residual 1, so
the deepest level, where most search nodes would lie, is never entered.

Every labeled graph is emitted with its (r, d) passed to
``Hypergraph._from_normalized``, so ``infer_uniform_regular`` (and with it
``check_conjecture``) answers without scanning the edges and degrees again.
The graph records the pair only where the inference would accept it
(r >= 2, d >= 1 and at least one edge), so on the r = 1, d = 0 and n = 0
specs the inference raises its usual error.  Up to isomorphism the emitted
graph is the canonical form, which records nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from . import core
from .core import Caps, Hypergraph, canonical_form
from .errors import CapacityError, InvalidArgumentError


@dataclass(frozen=True)
class EnumSpec:
    """Parameters of an enumeration run: d-regular r-uniform on n vertices.
    ``caps.canon`` bounds n when up_to_iso."""

    r: int
    d: int
    n: int
    up_to_iso: bool = False
    prefix: tuple[tuple[int, ...], ...] = ()
    caps: Caps = Caps()

    def __post_init__(self):
        if self.r < 1 or self.d < 0 or self.n < 0:
            raise InvalidArgumentError(
                f"need r >= 1, d >= 0, n >= 0, got r={self.r}, d={self.d}, n={self.n}")
        if self.d >= 1 and 0 < self.n < self.r:
            raise InvalidArgumentError(
                f"no {self.r}-uniform edges fit on {self.n} vertices")
        if self.up_to_iso and self.n > self.caps.canon:
            raise CapacityError(
                f"up_to_iso is capped at n <= {self.caps.canon}, got n = {self.n}")

    @property
    def feasible(self) -> bool:
        return (self.n * self.d) % self.r == 0

    @property
    def num_edges(self) -> int:
        return (self.n * self.d) // self.r


def enumerate_regular(spec: EnumSpec,
                      visit: Callable[[Hypergraph], None] | None = None) -> int:
    """Emit every simple d-regular r-uniform hypergraph on vertices 0..n-1
    exactly once (one representative per isomorphism class when up_to_iso),
    calling `visit` on each.  Returns the number emitted."""
    if not spec.feasible:
        return 0
    candidates = list(itertools.combinations(range(spec.n), spec.r))
    masks = [core.mask_of(e) for e in candidates]
    index = {mask: j for j, mask in enumerate(masks)}
    everyone = (1 << spec.n) - 1
    m = spec.num_edges

    # candidates[block[v]:block[v + 1]] are the edges whose smallest vertex is v
    block = [0] * (spec.n + 1)
    for e in candidates:
        block[e[0] + 1] += 1
    for v in range(spec.n):
        block[v + 1] += block[v]

    residual = [spec.d] * spec.n
    chosen: list[tuple[int, ...]] = []

    start = 0
    for e in spec.prefix:
        try:
            idx = candidates.index(tuple(e))
        except ValueError:
            raise InvalidArgumentError(f"prefix edge {e} is not a valid candidate")
        if idx < start:
            raise InvalidArgumentError("prefix edges must be lexicographically increasing")
        if any(residual[v] == 0 for v in e):
            raise InvalidArgumentError(f"prefix edge {e} overfills a vertex degree")
        for v in e:
            residual[v] -= 1
        chosen.append(tuple(e))
        start = idx + 1

    seen_canon: set[Hypergraph] = set()
    emitted = 0
    # recorded only where infer_uniform_regular would accept it
    known = (spec.r, spec.d)

    def emit() -> None:
        nonlocal emitted
        # m edges carry all n*d incidences, so every degree is d
        # chosen holds distinct candidates in increasing lex order
        g = Hypergraph._from_normalized(spec.n, tuple(chosen), known)
        if spec.up_to_iso:
            canon = canonical_form(g, spec.caps)
            if canon in seen_canon:
                return
            seen_canon.add(canon)
            g = canon
        emitted += 1
        if visit is not None:
            visit(g)

    def rec(i: int, full: int) -> None:
        # fewer than m - 1 edges are chosen
        # every vertex below v is full, so the next edge starts at v
        v = (~full & (full + 1)).bit_length() - 1
        if len(chosen) == m - 2:
            # the next edge is the last but one; after it the residuals sum
            # to r, so the vertices not full -- all but its own vertices of
            # residual 1 -- must be exactly the last edge, which comes later
            ones = 0
            for u in range(v, spec.n):
                if residual[u] == 1:
                    ones |= 1 << u
            for j in range(max(i, block[v]), block[v + 1]):
                mask = masks[j]
                if mask & full:
                    continue
                k = index.get(everyone & ~(full | mask & ones), -1)
                if k > j:
                    chosen.append(candidates[j])
                    chosen.append(candidates[k])
                    emit()
                    del chosen[-2:]
            return
        for j in range(max(i, block[v]), block[v + 1]):
            if masks[j] & full:
                continue
            e = candidates[j]
            now_full = full
            for u in e:
                residual[u] -= 1
                if not residual[u]:
                    now_full |= 1 << u
            chosen.append(e)
            rec(j + 1, now_full)
            chosen.pop()
            for u in e:
                residual[u] += 1

    full = core.mask_of(v for v in range(spec.n) if residual[v] == 0)
    if len(chosen) == m:
        emit()
    elif len(chosen) == m - 1:
        # the residuals sum to r: the vertices not yet full must be exactly
        # the last edge, and it must come at or after candidate start
        j = index.get(everyone & ~full, -1)
        if j >= start:
            chosen.append(candidates[j])
            emit()
    else:
        rec(start, full)
    return emitted


def first_edge_choices(spec: EnumSpec) -> list[tuple[int, ...]]:
    """Candidate first edges, for partitioning a run across workers.

    Every emission either extends exactly one of these one-edge prefixes, so
    enumerating each prefix separately and concatenating reproduces the
    unsplit run.  With d >= 1 vertex 0 lies in some edge, so the smallest
    edge contains it; first edges without vertex 0 would emit nothing and
    are left out.
    """
    if not spec.feasible or spec.num_edges == 0:
        return []
    return [(0,) + rest
            for rest in itertools.combinations(range(1, spec.n), spec.r - 1)]

"""Exact independent-set counting.

Three routes, all returning exact Python integers:

* ``ind_hrd_formula`` -- the closed form for the extremal family H(r,d),
* ``count_brute`` -- exhaustive subset iteration, bit-parallel: one bit per
  subset of the low vertices in a Python integer.  Up to 12 vertices every
  vertex is low, and the count is one OR of edge patterns that a cache keyed
  by n builds once each, at most 4,095 patterns of 512 bytes at n = 12;
  nothing is cached above 12 vertices,
* ``count_branch`` -- a sum over vertex states along one greedy vertex
  order (frontier dynamic programming, the variable-elimination view of
  recursive conditioning).  Each step maps every state -- the forced-out
  vertices and the started edges still open -- to its out and in
  successors and adds the counts of equal states, so the work is
  exponential only in the width of the order, and a loop over the order
  replaces recursion.

``count(g, method)`` is the one entry point: ``"auto"`` runs ``count_auto``
(brute force below 20 vertices, ``count_branch`` from 20), and ``"brute"``
and ``"branch"`` run those routes.

``count_brute`` is the independent oracle: ``count_branch`` is validated
against it, never the other way around.

numpy is imported inside ``independent_set_masks`` alone, the proof
checker's enumerator, so a process that only counts never loads it.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from itertools import groupby

from .core import Caps, Hypergraph, vertices_of
from .errors import CapacityError, InvalidArgumentError

_CHUNK = 1 << 20
_LOW_BITS = 20
_AUTO_THRESHOLD = 20  # count_auto's first n for count_branch
# count_brute reads edge patterns from a per-n cache up to this many vertices
_CACHED_N = 12


def ind_hrd_formula(r: int, d: int) -> int:
    """Closed form for the number of independent sets of H(r,d):
    2^((r-1)d) + (2^d - 1)(2^(r-1) - 1)^d."""
    if r < 2:
        raise InvalidArgumentError(f"uniformity r must be >= 2, got {r}")
    if d < 1:
        raise InvalidArgumentError(f"degree d must be >= 1, got {d}")
    return 2 ** ((r - 1) * d) + (2 ** d - 1) * (2 ** (r - 1) - 1) ** d


def brute_cap_error(n: int, caps: Caps) -> CapacityError:
    """The error ``count_brute`` raises on n > caps.brute vertices."""
    return CapacityError(f"count_brute capped at n <= {caps.brute}, got n = {n}")


def count_brute(g: Hypergraph, caps: Caps = Caps()) -> int:
    """Count independent sets by checking every one of the 2^n subsets.

    A subset S is split into its low part (vertices below k = min(n, 20))
    and its high part.  For each assignment of the high vertices, bit s of
    one 2^k-bit integer marks the low parts s for which some edge lies
    inside S; that integer is the OR over the edges whose high part fits the
    assignment of the AND of their low vertices' patterns, and its unset
    bits are the independent sets with that high part.

    Up to n = 12 every vertex is low and there is one assignment, so the
    count is 2^n less the popcount of the OR of the edges' patterns, and
    each pattern comes from ``_edge_patterns(n)``: a labeled sweep counts
    tens of thousands of graphs on one n that share a few hundred edges.
    That cache is bounded by every edge on every n <= 12, about 4 MB, and
    holds nothing for larger n.  ``enumerate_regular`` ORs the same patterns
    along its search and builds each labeled graph with the count, which
    is returned here once the cap check has passed; every other graph is
    counted from its edges.
    """
    if g.n > caps.brute:
        raise brute_cap_error(g.n, caps)
    if g.n <= _CACHED_N:
        if g._ind is not None:
            return g._ind
        patterns = _edge_patterns(g.n)
        hit = 0
        for e in g.edges:
            hit |= patterns[e]
        return (1 << g.n) - hit.bit_count()
    k = min(g.n, _LOW_BITS)
    patterns = _low_patterns(k)
    everything = (1 << (1 << k)) - 1
    split = []
    for e in g.edges:
        high, low = 0, everything
        for v in e:
            if v < k:
                low &= patterns[v]
            else:
                high |= 1 << (v - k)
        split.append((high, low))
    total = 0
    for assignment in range(1 << (g.n - k)):
        hit = 0
        for high, low in split:
            if high & assignment == high:
                hit |= low
        total += (1 << k) - hit.bit_count()
    return total


@lru_cache(maxsize=None)
def _low_patterns(k: int) -> tuple[int, ...]:
    """For each v < k, the 2^k-bit integer whose bit s is set iff v is in
    the subset s.  k is at most 20, so the cache holds at most 21 tuples,
    about 5 MB in all; ``_edge_patterns`` holds the ANDs of these over
    edges, for k <= 12 only."""
    patterns = []
    for v in range(k):
        half = 1 << v
        pattern, width = ((1 << half) - 1) << half, 2 * half
        while width < 1 << k:
            pattern |= pattern << width
            width *= 2
        patterns.append(pattern)
    return tuple(patterns)


class _EdgePatterns(dict):
    """Edge tuple on 0..n-1 -> the AND of its vertices' ``_low_patterns(n)``,
    the 2^n-bit integer whose bit s is set iff the edge lies inside s; each
    entry is built on first lookup."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, e: tuple[int, ...]) -> int:
        low = _low_patterns(self.n)
        pattern = (1 << (1 << self.n)) - 1
        for v in e:
            pattern &= low[v]
        self[e] = pattern
        return pattern


@lru_cache(maxsize=None)
def _edge_patterns(n: int) -> _EdgePatterns:
    """The edge patterns on n <= ``_CACHED_N`` vertices, one table per n.
    There are 2^n - 1 nonempty edges of 2^n bits each, so the tables hold
    at most 4,095 patterns of 512 bytes at n = 12, and about 4 MB over all
    n with their keys."""
    return _EdgePatterns(n)


def independent_set_masks(g: Hypergraph, within: int | None = None) -> np.ndarray:
    """The independent sets of the subhypergraph induced on the vertex mask
    ``within`` (default: all of g) as a ``np.uint64`` array of bitmasks, in
    increasing order of the encoding.

    It tests all 2^|within| subsets of ``within`` against the edges inside
    it, 2^20 at a time: subset i is i's bits dealt out, in order, to the
    vertices of ``within``, one contiguous run of vertices per shift.
    ``joint_distribution``, its caller, caps n.
    """
    import numpy as np

    if within is None:
        within = (1 << g.n) - 1
    verts = vertices_of(within)
    runs = []  # [first bit of i, first vertex, length] per run of vertices
    for bit, v in enumerate(verts):
        if bit and verts[bit - 1] == v - 1:
            runs[-1][2] += 1
        else:
            runs.append([bit, v, 1])
    emasks = np.array([em for em in g.edge_masks if em & ~within == 0],
                      dtype=np.uint64)
    parts = []
    for start in range(0, 1 << len(verts), _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, 1 << len(verts)),
                        dtype=np.uint64)
        subs = np.zeros_like(idx)
        for bit, v, length in runs:
            subs |= ((idx >> bit) & ((1 << length) - 1)) << v
        ok = np.ones(len(subs), dtype=bool)
        for em in emasks:
            ok &= (subs & em) != em
        parts.append(subs[ok])
    return np.concatenate(parts)


def count_branch(g: Hypergraph) -> int:
    """Count independent sets by summing over vertex states along a vertex
    order, one vertex at a time (frontier dynamic programming).

    The input is first made superset-free; a unit edge {v} is then the only
    edge through v, so v is simply out.  ``_elimination_order`` fixes the order
    once, and ``_frontier_sum`` walks it.  After each step the processed
    vertices are summarised by a state (F, S) with an exact count of the
    choices that lead to it:

    * F, the unprocessed vertices that the choices force out: the last
      vertex of an edge whose other vertices are all in;
    * S, the started edges whose processed vertices are all in, whose
      unprocessed rest has at least two vertices, and which miss F.

    Equal states have equal futures, so their counts add.  The order
    finishes one component before it starts the next, so between components
    the only state is the empty one, and the counts multiply.  Vertices on
    no edge contribute a factor of 2 each.  Nothing recurses: the walk is
    one loop over the order, so long paths and cycles need no deeper stack
    than short ones.
    """
    kept = _drop_supersets(g.edge_masks)
    covered = 0
    for e in kept:
        covered |= e
    as_tuple = dict(zip(g.edge_masks, g.edges))
    edges = [as_tuple[e] for e in kept if e & (e - 1)]
    order = _elimination_order(g.n, edges)
    return _frontier_sum(order, edges) << (g.n - covered.bit_count())


def _elimination_order(n: int, edges: list[tuple[int, ...]]) -> list[int]:
    """The vertices of ``edges`` in a greedy order of small frontier.

    An edge is started once one of its vertices is placed, and closed when
    one vertex is left.  Among the vertices on a started edge, the next one
    starts the fewest new edges net of the started edges it is on and of
    those it closes; ties go to the highest degree, then the lowest index.
    When no started edge has an unplaced vertex the component is done, and
    the next one begins at its lowest-degree vertex.  Placing a vertex only
    improves the keys of the vertices on its edges, so a lazy heap holds
    them: each change pushes a fresh key, and a popped key that is no longer
    current is skipped.
    """
    inc: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edges):
        for v in e:
            inc[v].append(i)
    unplaced = [len(e) for e in edges]
    # the key's first entry: unstarted edges minus started and closing ones
    gain = [len(x) for x in inc]
    placed = [False] * n
    order: list[int] = []

    def key(v: int) -> tuple[int, int, int]:
        return (gain[v], -len(inc[v]), v)

    for seed in sorted((v for v in range(n) if inc[v]),
                       key=lambda v: (len(inc[v]), v)):
        if placed[seed]:
            continue
        heap = [key(seed)]
        while heap:
            k = heappop(heap)
            v = k[-1]
            if placed[v] or k != key(v):
                continue
            placed[v] = True
            order.append(v)
            for i in inc[v]:
                e = edges[i]
                opened = unplaced[i] == len(e)
                unplaced[i] -= 1
                if not opened and unplaced[i] != 1:
                    continue
                for u in e:
                    if not placed[u]:
                        # started: one fewer unstarted, one more started;
                        # closed: u is its last vertex
                        gain[u] -= (2 if opened else 0) + (unplaced[i] == 1)
                        heappush(heap, key(u))
    return order


def _frontier_sum(order: list[int], edges: list[tuple[int, ...]]) -> int:
    """Independent sets of the vertices of ``order``, which hold every edge
    of ``edges`` (superset-free, two or more vertices each).

    A state is one int.  Each edge of three or more vertices owns a bit
    while it can be in S, from its first vertex to its last but one, and
    each vertex owns one while it can be in F, from the last but one vertex
    of an edge that ends at it to itself.  A freed bit is reused, so states
    stay as wide as the frontier, not the input.  Each step is compiled
    once into masks, and applying it to a state is a few integer operations.
    """
    steps = len(order)
    pos = {v: i for i, v in enumerate(order)}
    edges = [sorted(e, key=pos.__getitem__) for e in edges]
    opening: list[list[int]] = [[] for _ in range(steps)]  # by first vertex
    closing: list[list[int]] = [[] for _ in range(steps)]  # by last but one
    forceable: dict[int, int] = {}  # vertex -> first step it can be in F
    for j, e in enumerate(edges):
        opening[pos[e[0]]].append(j)
        penult = pos[e[-2]]
        forceable[e[-1]] = min(forceable.get(e[-1], steps), penult)
        if len(e) > 2:
            closing[penult].append(j)
    becomes_forceable: list[list[int]] = [[] for _ in range(steps)]
    for u, i in forceable.items():
        becomes_forceable[i].append(u)

    free: list[int] = []
    width = 0

    def take() -> int:
        nonlocal width
        if free:
            return 1 << heappop(free)
        width += 1
        return 1 << (width - 1)

    edge_bit = [0] * len(edges)
    vertex_bit: dict[int, int] = {}
    # vertex -> bits of the edges through it that can be in S
    live = dict.fromkeys(order, 0)
    plan = []
    for i, v in enumerate(order):
        for u in becomes_forceable[i]:
            vertex_bit[u] = take()
        own = vertex_bit.get(v, 0)
        out_keep = ~(own | live[v])
        in_clear = own
        for j in closing[i]:
            in_clear |= edge_bit[j]
            for u in edges[j]:
                live[u] ^= edge_bit[j]
        # an edge in S that v closes forces its last vertex out, and the edges
        # through that vertex leave S: (edge bit, vertex bit, bits to keep)
        forcing = [(edge_bit[j], vertex_bit[edges[j][-1]],
                    ~live[edges[j][-1]]) for j in closing[i]]
        add = 0
        in_keep = ~in_clear
        opened = []  # (bits of F that block the edge, edge bit)
        for j in opening[i]:
            e = edges[j]
            if len(e) == 2:
                add |= vertex_bit[e[1]]
                in_keep &= ~live[e[1]]
                continue
            bit = edge_bit[j] = take()
            blockers = 0
            for u in e[1:]:
                if forceable.get(u, steps) <= i:
                    blockers |= vertex_bit[u]
            if blockers:
                opened.append((blockers, bit))
            else:
                add |= bit
        for j in opening[i]:
            for u in edges[j]:
                live[u] |= edge_bit[j]
        plan.append((own, out_keep, in_keep, add, forcing, opened))
        for j in closing[i]:
            heappush(free, edge_bit[j].bit_length() - 1)
        if own:
            heappush(free, own.bit_length() - 1)

    states = {0: 1}
    for own, out_keep, in_keep, add, forcing, opened in plan:
        nxt: dict[int, int] = {}
        get = nxt.get
        for st, c in states.items():
            s = st & out_keep
            nxt[s] = get(s, 0) + c
            if st & own:
                continue
            s = st & in_keep | add
            for need, bit, keep in forcing:
                if st & need:
                    s = (s | bit) & keep
            for blockers, bit in opened:
                if not s & blockers:
                    s |= bit
            nxt[s] = get(s, 0) + c
        states = nxt
    return states[0]


def _drop_supersets(edges: tuple[int, ...]) -> tuple[int, ...]:
    kept: list[int] = []
    by_low: dict[int, list[int]] = {}  # kept edges by their lowest vertex
    # smaller edges first: distinct edges of one size never nest, and an
    # edge inside e has its lowest vertex in e
    for _, group in groupby(sorted(edges, key=int.bit_count), int.bit_count):
        fresh = [e for e in group if not any(
            e & k == k for v in _bits(e) for k in by_low.get(v, ()))]
        for e in fresh:
            by_low.setdefault(e & -e, []).append(e)
        kept += fresh
    return tuple(sorted(kept))


def _bits(mask: int):
    """The one-bit masks of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def count_auto(g: Hypergraph, caps: Caps = Caps()) -> int:
    """``count_brute`` below 20 vertices, ``count_branch`` from 20."""
    return count_brute(g, caps) if g.n < _AUTO_THRESHOLD else count_branch(g)


METHODS = ("auto", "brute", "branch")


def count(g: Hypergraph, method: str = "auto", caps: Caps = Caps()) -> int:
    """Count independent sets with ``count_<method>``."""
    # each route is a global looked up at call time, so a rebound module
    # attribute is honoured
    if method == "auto":
        return count_auto(g, caps)
    if method == "brute":
        return count_brute(g, caps)
    if method == "branch":
        return count_branch(g)  # no cap
    raise InvalidArgumentError(
        f"method must be one of {', '.join(METHODS)}, got {method!r}")

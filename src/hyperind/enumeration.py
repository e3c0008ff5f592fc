"""Exhaustive generation of d-regular r-uniform hypergraphs on n labeled
vertices, optionally up to isomorphism.

Edges are chosen in increasing lexicographic order while tracking residual
degrees.  At each step the lowest vertex v that still needs edges must be the
smallest vertex of the next edge, because every vertex below v is full and
every later edge is lexicographically larger.  So the search branches only
over the candidates whose smallest vertex is v, one contiguous block of the
sorted candidate list, skipping those that touch a full vertex.  Every later
edge through v lies in that block, so a node whose block has fewer
candidates left than v's residual degree is abandoned.  A graph is
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
Every prefix, down to a whole graph, goes through the same search.

The last DEPTH = 5 edges are memoised.  The bottom of the search tree
repeats: on the labeled sweep ranges a search without a memo visits 72,360,
35,312, 14,393 and 5,314 nodes with 2, 3, 4 and 5 edges left, and they
reach only 1,088, 1,351, 1,649 and 1,252 distinct states.  So the
completions of a node with at most DEPTH edges left are computed once per
state and replayed after the chosen prefix, from one table keyed by (first
candidate the next edge may take, residual degrees).  The key is exact.
The residuals fix the full vertices, and with them the lowest open vertex v
and the mask of residual-1 vertices; the next edge ranges over v's block
from the first candidate past the previous edge, max(i, block[v]); and
nothing else is read below the node.  The residuals sum to r times the
number of edges left, so one table serves every level.  With one or two
edges left an entry lists tails, (last edge,) or (edge, forced last edge)
pairs; above that it lists (edge, that child's entries) for each edge whose
child completes, sharing the child lists instead of flattening them into
suffixes, which would take more memory.  Each entry lists its completions in
the order the search would find them, so a node replays them in
lexicographic order and the emission order is unchanged.  The table lives
for one call.

The depth is a constant, not the whole tree.  Above DEPTH the search stays
a depth-first walk, so graphs stream out as they are found and the table
holds only the states within DEPTH edges of a leaf.  A table over every
level would emit nothing until the whole tree was built: on r=4 d=2 n=12
it emits its first graph after 23 s at 577 MB, against 0.3 s at 25 MB with
depth 5, and on r=2 d=3 n=12 after 4 s at 184 MB.  On the perfbench
`sweep` workload depth 5 ran 15% faster than a memo of the last three
edges; depth 4 was 1-5% slower than 5, and depth 6 about 1% faster at
0.3 MB more memory.

Every labeled graph is emitted with its (r, d) passed to
``Hypergraph._from_normalized``, so ``infer_uniform_regular`` (and with it
``check_conjecture``) answers without scanning the edges and degrees again.
The graph records the pair only where the inference would accept it
(r >= 2, d >= 1 and at least one edge), so on the r = 1, d = 0 and n = 0
specs the inference raises its usual error.  Up to isomorphism the emitted
graph is the canonical form, which records nothing.

Up to isomorphism only the labeled graphs whose first edge is
E0 = (0, 1, ..., r-1) are searched, and each is canonicalised; a class is
emitted at its first labeled member.  That member starts with E0: relabel
any member so that one of its edges lands on {0, ..., r-1}, and E0, the
lex-least r-set, is then its first edge.  The graphs starting with E0 are an
initial segment of the labeled order, so the classes and their order are
those of the full labeled search, which canonicalises about three times as
many graphs (465 against 155 on r=2 d=2 n=7).  An empty prefix searches E0,
a prefix that starts elsewhere emits nothing, and specs without edges are
searched as in the labeled case.  This is the first-edge case of orderly
generation (McKay, "Isomorph-free exhaustive generation", 1998).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from . import core
from .core import Caps, Hypergraph, canonical_form
from .errors import CapacityError, InvalidArgumentError

# nodes with at most this many edges left are memoised (module docstring)
DEPTH = 5


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
    calling `visit` on each.  Returns the number emitted.

    Up to isomorphism the search starts from the first edge E0 = (0, ..., r-1),
    which begins the first labeled member of every class (see the module
    docstring); a prefix that does not start with E0 emits nothing."""
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

    prefix = spec.prefix
    # up to isomorphism only the graphs whose first edge is E0 are searched;
    # they hold the first labeled member of every class
    e0 = tuple(range(spec.r))
    if spec.up_to_iso and m and not prefix:
        prefix = (e0,)

    start = 0
    for e in prefix:
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
    if spec.up_to_iso and m and chosen[0] != e0:
        return 0

    seen_canon: set[Hypergraph] = set()
    emitted = 0
    # recorded only where infer_uniform_regular would accept it
    known = (spec.r, spec.d)

    def emit(edges: tuple[tuple[int, ...], ...]) -> None:
        nonlocal emitted
        # m edges carry all n*d incidences, so every degree is d
        # edges holds distinct candidates in increasing lex order
        g = Hypergraph._from_normalized(spec.n, edges, known)
        if spec.up_to_iso:
            canon = canonical_form(g, spec.caps)
            if canon in seen_canon:
                return
            seen_canon.add(canon)
            g = canon
        emitted += 1
        if visit is not None:
            visit(g)

    # the completions of a node with 1..DEPTH edges left, keyed by the first
    # candidate its next edge may take and its residuals, which sum to r times
    # the number of edges left
    memo: dict[tuple[int, tuple[int, ...]], list] = {}

    def completions(i: int, full: int, left: int) -> list:
        """The tails when at most two edges are left: (), (forced last
        edge,) or (edge, forced last edge); above that (edge, that edge's
        completions) for each edge that starts one."""
        if not left:
            return [()]
        # every vertex below v is full, so the next edge starts at v
        v = (~full & (full + 1)).bit_length() - 1
        start = max(i, block[v])
        key = (start, tuple(residual))
        entries = memo.get(key)
        if entries is not None:
            return entries
        entries = []
        if left == 1:
            # the residuals sum to r: the vertices not full are the last edge
            k = index.get(everyone & ~full, -1)
            if k >= start:
                entries.append((candidates[k],))
        elif left == 2:
            # after the next edge the residuals sum to r, so the vertices not
            # full -- all but its own vertices of residual 1 -- must be
            # exactly the last edge, which comes later
            ones = sum(1 << u for u in range(v, spec.n) if residual[u] == 1)
            for j in range(start, block[v + 1]):
                mask = masks[j]
                if mask & full:
                    continue
                k = index.get(everyone & ~(full | mask & ones), -1)
                if k > j:
                    entries.append((candidates[j], candidates[k]))
        else:
            for j in range(start, block[v + 1]):
                if masks[j] & full:
                    continue
                e = candidates[j]
                now_full = full
                for u in e:
                    residual[u] -= 1
                    if not residual[u]:
                        now_full |= 1 << u
                child = completions(j + 1, now_full, left - 1)
                for u in e:
                    residual[u] += 1
                if child:
                    entries.append((e, child))
        memo[key] = entries
        return entries

    def replay(head: tuple, entries: list, left: int) -> None:
        if left <= 2:
            for tail in entries:
                emit(head + tail)
        elif left == 3:
            for e, pairs in entries:
                head_e = head + (e,)
                for pair in pairs:
                    emit(head_e + pair)
        else:
            for e, child in entries:
                replay(head + (e,), child, left - 1)

    def rec(i: int, full: int) -> None:
        # every prefix, down to a whole graph, ends in the memo levels
        left = m - len(chosen)
        if left <= DEPTH:
            replay(tuple(chosen), completions(i, full, left), left)
            return
        v = (~full & (full + 1)).bit_length() - 1
        start = max(i, block[v])
        # every later edge through v lies in v's block
        if block[v + 1] - start < residual[v]:
            return
        for j in range(start, block[v + 1]):
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
    try:
        rec(start, full)
    finally:
        # these refer to themselves through their closures; without this the
        # memo would wait for a cyclic collection to be freed
        rec = completions = replay = None
    return emitted


def first_edge_choices(spec: EnumSpec) -> list[tuple[int, ...]]:
    """Candidate first edges, for partitioning a run across workers.

    Every emission either extends exactly one of these one-edge prefixes, so
    enumerating each prefix separately and concatenating reproduces the
    unsplit run.  With d >= 1 vertex 0 lies in some edge, so the smallest
    edge contains it; first edges without vertex 0 would emit nothing and
    are left out.  Up to isomorphism only E0 = (0, 1, ..., r-1) is searched
    (see ``enumerate_regular``), so it is the one chunk.
    """
    if not spec.feasible or spec.num_edges == 0:
        return []
    if spec.up_to_iso:
        return [tuple(range(spec.r))]
    return [(0,) + rest
            for rest in itertools.combinations(range(1, spec.n), spec.r - 1)]

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
35,312, 14,393 and 5,314 nodes with 2, 3, 4 and 5 edges left, and they reach
only 1,088, 1,351, 1,649 and 1,252 distinct states.  So the completions of a
node with at most DEPTH edges left are computed once per state and replayed
after the chosen prefix, from one table keyed by the first candidate the
next edge may take, start, and the residual degrees.  The search carries the
residuals as one integer as well, code = sum of residual[u] << w*u with w =
d.bit_length(), and a chosen candidate lowers it by its own sum of 1 << w*u,
computed once per run.  The key is the integer code << shift | start, with
shift = len(candidates).bit_length().  The key is exact.  Each w-bit field
holds a residual of at most d < 2^w, and start <= len(candidates) < 2^shift,
so the key gives back start and every residual.  The residuals fix the full
vertices, and with them the lowest open vertex v and the mask of residual-1
vertices; the next edge ranges over v's block from the first candidate past
the previous edge, max(i, block[v]); and nothing else is read below the
node.  The residuals sum to r times the number of edges left, so one table
serves every level.  With one or two edges left an entry lists tails, (last
edge,) or flat (edge, forced last edge, pattern) triples; above that it
lists (edge, that child's entries) for each edge whose child completes,
sharing the child lists instead of flattening them into suffixes, which
would take more memory.  Each entry lists its completions in the order the
search would find them, so a node replays them in lexicographic order and
the emission order is unchanged.  The table lives for one call.

The depth is a constant, not the whole tree.  Above DEPTH the search stays
a depth-first walk, so graphs stream out as they are found and the table
holds only the states within DEPTH edges of a leaf.  A table over every
level would emit nothing until the whole tree was built: on r=4 d=2 n=12
it emits its first graph after 23 s at 577 MB, against 0.3 s at 25 MB with
depth 5, and on r=2 d=3 n=12 after 4 s at 184 MB.  Depth 6 already holds
too much: r=4 d=2 n=12 emits its first graph after 18.7 s at 527 MB,
against 0.33 s at 28 MB at depth 5.  A deeper table does pay on whole runs
of small n: r=2 d=4 n=9 with ``check_conjecture`` took 4.5 s at depth 5,
4.3 s at depth 6 and 3.4 s at depth 7 (one round, 2-core Xeon, figures in
``BENCH_25.json``).  On the perfbench `sweep` workload depth 5 ran 15%
faster than a memo of the last three edges, and depth 4 was 1-5% slower
than 5.

Every labeled graph is emitted with its (r, d) recorded as
``Hypergraph._from_normalized`` records it, so ``check_conjecture`` reads
them without scanning the edges and degrees again.  The graph records the
pair only where ``infer_uniform_regular`` would accept it (r >= 2, d >= 1
and at least one edge), so on the r = 1, d = 0 and n = 0 specs the check
raises the inference's usual error.  On n <= 12 vertices it is also emitted
with its count ind(G), which ``count_brute`` returns after its cap check.
The count is 2^n less the popcount of the OR of the edges' patterns from
count_brute's ``_edge_patterns(n)``, and the search carries that OR down:
each chosen edge ORs its pattern into the one passed to the next level,
each replayed level ORs its one edge, and a two-edge tail carries the OR of
its own two patterns, so a graph costs one OR and one popcount.  A tail's
OR is one integer per distinct pair of candidates, shared by every entry
that holds the pair: r=4 d=2 n=10 has 65,385 two-edge entries over 5,465
pairs.  Among the sweep specs only r=3 d=1 n=12 has as many pairs as
entries, 2,100 of 512 bytes each, about 1.3 MB while it runs.  With three
edges left the replay walks each edge's two-edge tails in one loop and
writes each graph's instance dict there, the same four keys
``_from_normalized`` would write; whether the pair may be recorded is
decided once per run, and a run that records none (r = 1) replays level by
level through ``_from_normalized`` instead.  Where nothing is counted (up to
isomorphism, or above 12 vertices) the pattern table holds zeros, so one
replay and one memo serve every run, and those graphs are emitted one at a
time.  A labeled run with no visit only tallies the tails and builds no
graph at all.  Up to isomorphism the emitted graph is the canonical form,
which records nothing.

Up to isomorphism only the labeled graphs whose first two edges are
E0 = (0, 1, ..., r-1) and some S_t = (0, ..., t-1, r, ..., 2r-t-1) are
searched, and each is canonicalised; a class is emitted at its first labeled
member G, the lex-least one.  G starts with E0: relabel any member so that
one of its edges lands on {0, ..., r-1}, and E0, the lex-least r-set, is
then its first edge.  Say G's second edge e2 meets E0 in t vertices.
Relabel G so that E0 maps onto itself, the vertices of e2 in E0 onto
0..t-1 and its other vertices onto r..2r-t-1.  The result has edges E0 and
S_t, so its second edge is at most S_t, and it is no smaller than G, so
e2 <= S_t.  Sorted tuples of one length compare elementwise, and e2 >= S_t
elementwise, so e2 = S_t.  The S_t are tried in increasing lex order,
t = r-1 down to 0, each as the prefix (E0, S_t) of the one search; an S_t
that leaves 0..n-1 or overfills a vertex is skipped, and one that misses
the lowest open vertex ends at the block prune.  So the searched graphs
hold every class's first member in labeled order, and the classes and their
order are those of the full labeled search, which canonicalises fifteen
times as many graphs (465 against 31 on r=2 d=2 n=7; 155 under E0 alone).  An empty prefix searches
every (E0, S_t), a prefix whose first edge is not E0 or whose second edge is
no S_t emits nothing, and specs without edges are searched as in the
labeled case.  This is the second-edge case of orderly generation (McKay,
"Isomorph-free exhaustive generation", 1998).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from . import core, counting
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

    Up to isomorphism the search starts from the first edges E0 = (0, ..., r-1)
    and S_t = (0, ..., t-1, r, ..., 2r-t-1), which begin the first labeled
    member of every class (see the module docstring); a prefix that does not
    start with E0, or whose second edge is no S_t, emits nothing."""
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

    def place(prefix: tuple) -> int:
        """Reset the search state to prefix, checking its edges, and return
        the first candidate index the next edge may take."""
        residual[:] = [spec.d] * spec.n
        chosen.clear()
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
        return start

    prefix = spec.prefix
    # up to isomorphism only the graphs whose first two edges are E0 and some
    # S_t are searched; they hold the first labeled member of every class
    r, e0 = spec.r, tuple(range(spec.r))
    if spec.up_to_iso and m and not prefix:
        prefix = (e0,)
    place(prefix)
    prefixes = [prefix]
    if spec.up_to_iso and m:
        if chosen[0] != e0:
            return 0
        # S_t = (0..t-1, r..2r-t-1) in increasing lex order, t = r-1 down to 0
        seconds = [tuple(range(t)) + tuple(range(r, 2 * r - t))
                   for t in range(r - 1, -1, -1) if 2 * r - t <= spec.n]
        if len(chosen) > 1 and chosen[1] not in seconds:
            return 0
        if len(chosen) == 1 and m > 1:
            prefixes = [(e0, s) for s in seconds if all(residual[v] for v in s)]

    seen_canon: set[Hypergraph] = set()
    emitted = 0
    # the pair is recorded only where infer_uniform_regular would accept it;
    # build checks that for each graph, the counted loop once here
    known = (spec.r, spec.d)
    recordable = spec.r >= 2 and spec.d >= 1 and m >= 1
    n, up_to_iso = spec.n, spec.up_to_iso
    # a labeled run with no visit builds no graph; one with a visit counts
    # each graph along the search from count_brute's edge patterns where
    # they are cached, and elsewhere the ORs run on zeros
    tally_only = visit is None and not up_to_iso
    counted = visit is not None and not up_to_iso and n <= counting._CACHED_N
    # a counted graph with a recordable pair is built inline, two levels deep
    two_level = counted and recordable
    pat = counting._edge_patterns(n) if counted else dict.fromkeys(candidates, 0)
    build, new, top = Hypergraph._from_normalized, Hypergraph.__new__, 1 << n

    # the residuals as one integer, w bits per vertex, and what each
    # candidate takes off it; a residual is at most d < 2^w
    w = spec.d.bit_length()
    dec = [sum(1 << w * u for u in e) for e in candidates]
    shift = len(candidates).bit_length()

    def emit(edges: tuple) -> None:
        """Emit a graph that carries no count."""
        nonlocal emitted
        # m edges carry all n*d incidences, so every degree is d
        # the edges are distinct candidates in increasing lex order
        g = build(n, edges, known)
        if up_to_iso:
            canon = canonical_form(g, spec.caps)
            if canon in seen_canon:
                return
            seen_canon.add(canon)
            g = canon
        emitted += 1
        if visit is not None:
            visit(g)

    # the completions of a node with 1..DEPTH edges left, keyed by its
    # residuals' code and the first candidate its next edge may take; the
    # residuals sum to r times the number of edges left
    memo: dict[int, list] = {}
    # pat[a] | pat[b] for each pair (j, k) of candidate indices that is a
    # two-edge tail, one integer however many entries hold the pair
    pair_pats: dict[tuple[int, int], int] = {}

    def completions(i: int, full: int, code: int, left: int) -> list:
        """The tails when at most two edges are left: (), (forced last
        edge,) or (edge, forced last edge, OR of their patterns); above that
        (edge, that edge's completions) for each edge that starts one."""
        if not left:
            return [()]
        # every vertex below v is full, so the next edge starts at v
        v = (~full & (full + 1)).bit_length() - 1
        start = max(i, block[v])
        key = code << shift | start
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
                    a, b = candidates[j], candidates[k]
                    th = pat[a] | pat[b]
                    if th:
                        th = pair_pats.setdefault((j, k), th)
                    entries.append((a, b, th))
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
                child = completions(j + 1, now_full, code - dec[j], left - 1)
                for u in e:
                    residual[u] += 1
                if child:
                    entries.append((e, child))
        memo[key] = entries
        return entries

    def replay(head: tuple, hit: int, entries: list, left: int) -> None:
        """Emit head + each completion; hit is the OR of the head's edge
        patterns.  A counted graph is built and visited right here."""
        nonlocal emitted
        if left > 3 or left == 3 and not two_level:
            for e, child in entries:
                replay(head + (e,), hit | pat[e], child, left - 1)
        elif left == 3:
            # each edge's two-edge tails in place, every graph written as
            # _from_normalized would write it with a recordable pair
            for e, child in entries:
                h = head + (e,)
                p = hit | pat[e]
                for a, b, th in child:
                    g = new(Hypergraph)
                    gd = g.__dict__
                    gd["n"] = n
                    gd["edges"] = h + (a, b)
                    gd["_uniform_regular"] = known
                    gd["_ind"] = top - (p | th).bit_count()
                    visit(g)
                emitted += len(child)
        elif tally_only:
            emitted += len(entries)
        elif not counted:
            # a two-edge tail ends in its (zero) pattern
            for tail in entries:
                emit(head + tail[:2])
        elif left == 2:
            for a, b, th in entries:
                visit(build(n, head + (a, b), known,
                            top - (hit | th).bit_count()))
            emitted += len(entries)
        else:
            # at most one tail, () or (forced last edge,)
            for tail in entries:
                for e in tail:
                    hit |= pat[e]
                visit(build(n, head + tail, known, top - hit.bit_count()))
            emitted += len(entries)

    def rec(i: int, full: int, code: int, hit: int) -> None:
        # every prefix, down to a whole graph, ends in the memo levels; hit
        # is the OR of the chosen edges' patterns
        left = m - len(chosen)
        if left <= DEPTH:
            replay(tuple(chosen), hit, completions(i, full, code, left), left)
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
            rec(j + 1, now_full, code - dec[j], hit | pat[e])
            chosen.pop()
            for u in e:
                residual[u] += 1

    try:
        for prefix in prefixes:
            start = place(prefix)
            hit = 0
            for e in chosen:
                hit |= pat[e]
            rec(start, core.mask_of(v for v in range(n) if residual[v] == 0),
                sum(residual[u] << w * u for u in range(n)), hit)
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

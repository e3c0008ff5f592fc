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
repeats: the nodes a few edges above the leaves reach far fewer distinct
states than there are nodes.  So the completions of a node with at most
DEPTH edges left are computed once per state and replayed after the chosen
prefix, from one table keyed by the first candidate the next edge may take,
start, and the residual degrees.  The search carries the residuals as one
integer as well, code = sum of residual[u] << w*u with w = d.bit_length(),
and a chosen candidate lowers it by its own sum of 1 << w*u, computed once
per run.  The key is the integer code << shift | start, with
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
level would emit nothing until the whole tree was built.

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
that holds the pair.  With three edges left the replay walks each edge's
two-edge tails in one loop and writes each graph's instance dict there, the
same four keys ``_from_normalized`` would write; whether the pair may be
recorded is decided once per run, and a run that records none (r = 1)
replays level by level through ``_from_normalized`` instead.  Above 12
vertices nothing is counted and the pattern table holds zeros, so one
replay and one memo serve every run, and those graphs are emitted one at a
time.  A run with no visit only tallies the tails and builds no graph at
all.

Up to isomorphism ``enumerate_regular`` searches only below minimal
prefixes: edge lists that no relabeling of the vertices sorts below
themselves.  Let G be the lex-least labeled member of its class and P a
prefix of G's edge list.  Suppose a relabeling p made P smaller.  The
sorted p(G) holds p(P), so position by position its first |P| edges are at
most those of the sorted p(P), and p(G) < G, a contradiction.  So every
prefix of G is minimal.  The only minimal first edge is E0 = (0, ..., r-1),
and the minimal second edges are S_t = (0, ..., t-1, r, ..., 2r-t-1).  This
is orderly generation (Read, "Every one a winner", 1978; McKay,
"Isomorph-free exhaustive generation", 1998).

The test builds the sorted image of P one label at a time, labels 0..L-1
in use.  An unplaced edge's least image is its labels and the least free
ones; one that sorts below the next edge of P proves P is not minimal, and
when an edge's least image ties with it the search branches over which of
its unlabeled vertices takes label L.  A map that places every edge is an
automorphism of P.  As in ``canonical_form`` it is recorded, a node skips
a candidate in the orbit of one already tried under the recorded
automorphisms that fix its labeled vertices, and the search returns to the
last node it shares with the identity, the first leaf.

So up to isomorphism the labeled search is one walk that tests its first
K = max(min(2, m), min(ceil(2m/3), ceil(3n/2))) edges, where m = n*d/r.
The given prefix is tested once, and one that is not minimal emits
nothing; after that each edge that ends a prefix of at most K edges is
kept only if the prefix is minimal, and the memo levels are entered only
once K edges are chosen.  So one memo serves every minimal K-prefix, which is
exact because an entry depends only on the residuals and the start index,
never on the prefix above it.  The dispatcher canonicalises every graph
emitted and keeps a class the first time its canonical form appears,
emitting the form, which records nothing.  Below K the memoised labeled
search and the set of seen forms finish the job.  In measurement,
testing m-2 or m-3 edges, or m/2, took longer over the larger specs than
2m/3; the cap of 3n/2 edges binds only on dense specs (d/r > 9/4), whose
long prefixes have so many automorphisms that testing them costs more
than the few labeled graphs below them.  A class's lex-least member
extends a minimal K-prefix and the walk runs in lex order, so each class
is first seen at its lex-least member, and the classes and their order are
those of the full labeled search.  Specs without edges are searched as in
the labeled case.
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

    Up to isomorphism the one labeled walk keeps only minimal prefixes up
    to K edges, among which are the first edges of every class's first
    labeled member, and each class is emitted as its canonical form where
    that form first appears (see the module docstring); a prefix that some
    relabeling sorts lower emits nothing."""
    if not spec.feasible:
        return 0
    if not spec.up_to_iso:
        return _labeled(spec, visit, 0)
    m = spec.num_edges
    # the first K edges are tested for minimality (module docstring)
    depth = max(min(2, m), min(-(-2 * m // 3), -(-3 * spec.n // 2)))
    seen: set[Hypergraph] = set()

    def keep(g: Hypergraph) -> None:
        canon = canonical_form(g, spec.caps)
        if canon not in seen:
            seen.add(canon)
            if visit is not None:
                visit(canon)

    _labeled(spec, keep, depth)
    return len(seen)


def _minimal(prefix: list[tuple[int, ...]], n: int) -> bool:
    """Whether no relabeling of 0..n-1 sorts prefix, distinct sorted r-sets
    in increasing lex order, below itself (the module docstring's test)."""
    k = len(prefix)
    r = len(prefix[0]) if prefix else 0
    # edges and images as masks: of two r-sets the one holding the least
    # element of their symmetric difference sorts first
    masks = [core.mask_of(e) for e in prefix]
    incident = [[j for j, e in enumerate(prefix) if v in e] for v in range(n)]
    label = [-1] * n  # label[v] once vertex v is mapped
    image = [0] * k  # the labels of each edge's mapped vertices
    placed = [False] * k  # the edges mapped onto prefix[:i]
    autos: list[tuple[list[int], int]] = []  # (permutation, mask of its fixed points)

    def search(L: int, i: int, mapped: int) -> int | None:
        """Give label L to a vertex, the map's edges sorting as prefix[:i]
        so far.  A return value below L means: unwind to the node of that
        label, or to the top from -1 once a smaller image is found."""
        done = []  # edges this node places
        try:
            while i < k:
                t, tied, whole = masks[i], 0, -1
                for j in range(k):
                    if placed[j]:
                        continue
                    # j's least image: its labels and the least free ones
                    have = image[j]
                    least = have | ((1 << r - have.bit_count()) - 1) << L
                    diff = least ^ t
                    if least & diff & -diff:
                        return -1
                    if not diff:
                        if least == have:
                            whole = j
                        else:
                            tied |= masks[j] & ~mapped
                if whole < 0:
                    break
                placed[whole] = True
                done.append(whole)
                i += 1
            if i == k:
                # every edge is placed, so the map is an automorphism of
                # prefix; it agrees with the identity leaf below label moved
                perm = [v if label[v] < 0 else label[v] for v in range(n)]
                moved = next((v for v in range(n) if perm[v] != v), None)
                if moved is not None:
                    autos.append((perm, core.mask_of(
                        v for v in range(n) if perm[v] == v)))
                return moved
            tried = 0  # candidates searched here, closed under the orbits
            for x in core.vertices_of(tied):
                if tried >> x & 1:
                    continue
                label[x] = L
                for j in incident[x]:
                    image[j] |= 1 << L
                back = search(L + 1, i, mapped | 1 << x)
                label[x] = -1
                for j in incident[x]:
                    image[j] ^= 1 << L
                if back is not None and back < L:
                    return back
                tried = core._orbit_closure(
                    tried | 1 << x, [p for p, fixed in autos if not mapped & ~fixed])
            return None
        finally:
            for j in done:
                placed[j] = False

    try:
        return search(0, 0, 0) != -1
    finally:
        # search refers to itself through its closure
        search = None


def _labeled(spec: EnumSpec, visit: Callable[[Hypergraph], None] | None,
             depth: int) -> int:
    """The labeled search of a feasible spec below its prefix: emit every
    graph that extends it, calling `visit` on each, and return how many.
    Up to isomorphism the prefix and every extension of at most `depth`
    edges must be minimal; one memo serves the whole walk."""
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

    # the prefix is checked, and up to isomorphism tested, once
    residual = [spec.d] * spec.n
    chosen: list[tuple[int, ...]] = []
    for e in spec.prefix:
        if tuple(e) not in candidates:
            raise InvalidArgumentError(f"prefix edge {e} is not a valid candidate")
        if chosen and tuple(e) <= chosen[-1]:
            raise InvalidArgumentError("prefix edges must be lexicographically increasing")
        if any(residual[v] == 0 for v in e):
            raise InvalidArgumentError(f"prefix edge {e} overfills a vertex degree")
        for v in e:
            residual[v] -= 1
        chosen.append(tuple(e))
    if spec.up_to_iso and not _minimal(chosen, spec.n):
        return 0
    emitted = 0
    # the pair is recorded only where infer_uniform_regular would accept it;
    # build checks that for each graph, the counted loop once here
    known = (spec.r, spec.d)
    recordable = spec.r >= 2 and spec.d >= 1 and m >= 1
    n = spec.n
    # a run with no visit builds no graph; one with a visit counts each
    # graph along the search from count_brute's edge patterns where they
    # are cached, and elsewhere the ORs run on zeros
    counted = visit is not None and n <= counting._CACHED_N
    # a counted graph with a recordable pair is built inline, two levels deep
    two_level = counted and recordable
    pat = counting._edge_patterns(n) if counted else dict.fromkeys(candidates, 0)
    build, new, top = Hypergraph._from_normalized, Hypergraph.__new__, 1 << n

    # the residuals as one integer, w bits per vertex, and what each
    # candidate takes off it; a residual is at most d < 2^w
    w = spec.d.bit_length()
    dec = [sum(1 << w * u for u in e) for e in candidates]
    shift = len(candidates).bit_length()

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
        elif visit is None:
            emitted += len(entries)
        elif not counted:
            # m edges carry all n*d incidences, so every degree is d, and
            # they are distinct candidates in increasing lex order; a
            # two-edge tail ends in its (zero) pattern
            for tail in entries:
                visit(build(n, head + tail[:2], known))
            emitted += len(entries)
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
        # a prefix, down to a whole graph, ends in the memo levels once at
        # most DEPTH edges are left and its first `depth` edges are tested;
        # hit is the OR of the chosen edges' patterns
        left = m - len(chosen)
        if left <= DEPTH and len(chosen) >= depth:
            replay(tuple(chosen), hit, completions(i, full, code, left), left)
            return
        v = (~full & (full + 1)).bit_length() - 1
        start = max(i, block[v])
        # every later edge through v lies in v's block
        if block[v + 1] - start < residual[v]:
            return
        tested = len(chosen) < depth  # the next edge ends a tested prefix
        for j in range(start, block[v + 1]):
            if masks[j] & full:
                continue
            e = candidates[j]
            if tested and not _minimal(chosen + [e], n):
                continue
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

    hit = 0
    for e in chosen:
        hit |= pat[e]
    try:
        rec(candidates.index(chosen[-1]) + 1 if chosen else 0,
            core.mask_of(v for v in range(n) if residual[v] == 0),
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
    are left out.  Up to isomorphism E0 = (0, 1, ..., r-1) is the only
    minimal first edge (see the module docstring), so it is the one chunk.
    """
    if not spec.feasible or spec.num_edges == 0:
        return []
    if spec.up_to_iso:
        return [tuple(range(spec.r))]
    return [(0,) + rest
            for rest in itertools.combinations(range(1, spec.n), spec.r - 1)]

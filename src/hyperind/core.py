"""Uniform hypergraphs and their structural queries.

Vertices are labeled 0..n-1.  Edges are stored as sorted tuples of vertex
indices; the edge list itself is sorted lexicographically, so two equal
hypergraphs compare equal as values.  All operations are pure functions of
immutable inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .errors import CapacityError, InvalidArgumentError

VertexSet = frozenset[int]


@dataclass(frozen=True)
class Caps:
    """Largest n each exponential routine accepts.

    * brute -- ``count_brute``, which tests all 2^n subsets;
    * canon -- ``canonical_form``, whose labeling search is exponential in
      the worst case; twin and automorphism pruning keep the symmetric
      inputs seen so far (K_{6,6}, TD3(4), C_12) to milliseconds at n = 12;
    * entropy -- ``joint_distribution``, which tests the 2^|onto| subsets
      of its ``onto`` vertices: 2^n for the exhaustive table, 2^|B| for the
      B-side weights the proof checker uses.  The cap bounds n either way.
    """

    brute: int = 30
    canon: int = 12
    entropy: int = 24

    @classmethod
    def from_env(cls) -> "Caps":
        """The caps set by ``HYPERIND_CAPS="brute,canon,entropy"``, or the
        defaults when it is unset or empty."""
        raw = os.environ.get("HYPERIND_CAPS")
        if not raw:
            return cls()
        parts = raw.split(",")
        if len(parts) != 3:
            raise InvalidArgumentError(
                'HYPERIND_CAPS must be "brute,canon,entropy", e.g. "30,12,24"')
        try:
            return cls(*(int(p) for p in parts))
        except ValueError:
            raise InvalidArgumentError(
                f"HYPERIND_CAPS entries must be integers: {raw!r}")


def mask_of(vertices: Iterable[int]) -> int:
    """Pack a collection of vertex indices into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of vertex indices."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


@dataclass(frozen=True)
class Hypergraph:
    """A finite hypergraph on vertices 0..n-1 with a set of edges.

    Edges are deduplicated and normalized on construction.  Empty edges are
    rejected; isolated vertices are permitted and count toward n.
    """

    n: int
    edges: tuple[tuple[int, ...], ...]
    # ind(G) when _from_normalized was given it; not a field, so equality,
    # hashing and repr ignore it
    _ind = None

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        if n < 0:
            raise InvalidArgumentError(f"vertex count must be >= 0, got {n}")
        norm = set()
        for e in edges:
            t = tuple(sorted(set(e)))
            if not t:
                raise InvalidArgumentError("empty edges are not allowed")
            if t[0] < 0 or t[-1] >= n:
                raise InvalidArgumentError(
                    f"edge {t} has a vertex outside 0..{n - 1}")
            norm.add(t)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @classmethod
    def _from_normalized(cls, n: int, edges: tuple[tuple[int, ...], ...],
                         uniform_regular: tuple[int, int] | None = None,
                         ind: int | None = None) -> "Hypergraph":
        """Wrap edges that are already distinct sorted tuples in 0..n-1, in
        lexicographic order, without checking them again.

        A caller that built the edges as a d-regular r-uniform graph may
        pass (r, d).  It fills the ``_uniform_regular`` cache, so the
        inference never scans g, but only when those loops would accept
        the graph: r >= 2, d >= 1 and at least one edge.  Otherwise nothing
        is recorded and the inference raises its usual error.

        A caller that counted the independent sets may pass the count as
        ``ind``; ``count_brute`` then returns it on n <= 12 vertices after
        its cap check.  Only the integer is kept, in the instance dict like
        the pair: it is no field, so equality and hashing ignore it.

        It writes the instance dict key by key without building keyword
        arguments.  ``enumerate_regular`` is the second writer: its counted
        loop writes the same four keys itself for a pair it has checked
        once per run, and calls this for every other graph it emits.
        ``canonical_form`` builds every form with it, from edge
        tuples taken from one shared table, and it keeps the tuple it is
        given, so forms share their edge objects."""
        g = object.__new__(cls)
        d = g.__dict__
        d["n"] = n
        d["edges"] = edges
        if (uniform_regular and edges and uniform_regular[0] >= 2
                and uniform_regular[1] >= 1):
            d["_uniform_regular"] = uniform_regular
        if ind is not None:
            d["_ind"] = ind
        return g

    @cached_property
    def edge_masks(self) -> tuple[int, ...]:
        return tuple(mask_of(e) for e in self.edges)

    @cached_property
    def _uniform_regular(self) -> tuple[int, int]:
        """The (r, d) of a uniform regular hypergraph, with named offenders
        on failure.  Requires r >= 2 and d >= 1.  A failure caches nothing,
        so every access raises the same error again."""
        if not self.edges:
            raise InvalidArgumentError(
                "hypergraph has no edges (degree d = 0 is rejected)")
        r = len(self.edges[0])
        for e in self.edges:
            if len(e) != r:
                raise InvalidArgumentError(
                    f"not uniform: edge {e} has size {len(e)}, expected {r}")
        if r < 2:
            raise InvalidArgumentError("uniformity r must be >= 2")
        degs = self.degrees()
        d = degs[0] if self.n else 0
        if degs.count(d) != len(degs):  # counted in C; the loop names the offender
            for v, dv in enumerate(degs):
                if dv != d:
                    raise InvalidArgumentError(
                        f"not regular: vertex {v} has degree {dv}, vertex 0 has degree {d}")
        if d < 1:
            raise InvalidArgumentError("degree d must be >= 1")
        return r, d

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        degs = [0] * self.n
        for e in self.edges:
            for v in e:
                degs[v] += 1
        return degs

    def uniformity(self) -> int | None:
        """Common edge size r, or None if edges have mixed sizes or there are none."""
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None

    def regularity(self) -> int | None:
        """Common vertex degree d, or None if degrees differ (needs n >= 1)."""
        if self.n == 0:
            return None
        degs = set(self.degrees())
        return degs.pop() if len(degs) == 1 else None

    def is_independent(self, s: Iterable[int] | int) -> bool:
        """True iff no edge is fully contained in s."""
        smask = s if isinstance(s, int) else mask_of(s)
        if smask >> self.n:
            raise InvalidArgumentError("subset contains out-of-range vertices")
        return all(em & smask != em for em in self.edge_masks)

    def restrict(self, vertices: Iterable[int]) -> "Hypergraph":
        """Relabel the induced sub-hypergraph on `vertices` to 0..k-1.

        Keeps only edges fully contained in `vertices`.
        """
        verts = sorted(set(vertices))
        relabel = {v: i for i, v in enumerate(verts)}
        keep = [tuple(relabel[u] for u in e) for e in self.edges
                if all(u in relabel for u in e)]
        return Hypergraph(len(verts), keep)

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={list(self.edges)})"


@dataclass(frozen=True)
class QuasiBipartition:
    """Certificate that a hypergraph is quasi-bipartite.

    Every edge meets a_side in exactly one vertex, and each a_side vertex's
    link is a matching (its edges are pairwise disjoint).
    """

    a_side: VertexSet
    b_side: VertexSet
    link_matchings: dict[int, tuple[tuple[int, ...], ...]] = field(hash=False)


def quasi_bipartition(g: Hypergraph) -> QuasiBipartition | None:
    """Search for an (A, B) partition satisfying both quasi-bipartite conditions.

    Exact backtracking over per-edge A-representative choices: assigning an
    edge's A-vertex forces all its other vertices into B.  Edges are processed
    in lexicographic order and representatives tried in increasing vertex
    order, so the certificate returned is deterministic.  Returns None when no
    valid partition exists.

    Whether a vertex's link is a matching depends on g alone, so one pass
    over the edges finds the vertices whose link is not, and the search never
    places them in A.  A vertex placed in A stays in A below that node, so
    every branch this filter cuts holds no valid leaf, and the first
    certificate found is the one the unfiltered search finds first.  The
    search keeps one frame per decided edge in a list, not on the call
    stack, so no input reaches Python's recursion limit.
    """
    r = g.uniformity()
    if g.num_edges and (r is None or r < 2):
        raise InvalidArgumentError(
            "quasi_bipartition requires an r-uniform hypergraph with r >= 2")

    edge_masks = g.edge_masks
    # bad = the vertices whose link is not a matching: two of their edges
    # share a vertex besides them
    seen = [0] * g.n
    bad = 0
    for em, e in zip(edge_masks, g.edges):
        for v in e:
            rest = em ^ (1 << v)
            if seen[v] & rest:
                bad |= 1 << v
            seen[v] |= rest

    # frames[i] = [candidates left for edge i, A before edge i, B before it]
    frames: list[list[int]] = []
    a_mask = b_mask = 0
    while len(frames) < len(edge_masks):
        em = edge_masks[len(frames)]
        here = em & a_mask
        if here:  # an edge with one A-vertex takes it; with two, none
            cands = 0 if here & (here - 1) else here
        else:
            cands = em & ~b_mask & ~bad
        frames.append([cands, a_mask, b_mask])
        while frames:
            frame = frames[-1]
            if frame[0]:
                rep = frame[0] & -frame[0]
                frame[0] ^= rep
                a_mask = frame[1] | rep
                b_mask = frame[2] | (edge_masks[len(frames) - 1] ^ rep)
                break
            frames.pop()
        else:
            return None

    a_side = vertices_of(a_mask)
    # each edge has one A-vertex, and removing it keeps the edges' lex order
    matchings: dict[int, list[tuple[int, ...]]] = {a: [] for a in a_side}
    for em, e in zip(edge_masks, g.edges):
        a = (em & a_mask).bit_length() - 1
        matchings[a].append(tuple(u for u in e if u != a))
    a_set = frozenset(a_side)
    return QuasiBipartition(a_set, frozenset(range(g.n)) - a_set,
                            {a: tuple(rem) for a, rem in matchings.items()})


def disjoint_union(gs: Iterable[Hypergraph]) -> Hypergraph:
    """Concatenate hypergraphs, relabeling each block by a vertex offset."""
    n = 0
    edges: list[tuple[int, ...]] = []
    for g in gs:
        edges.extend(tuple(v + n for v in e) for e in g.edges)
        n += g.n
    return Hypergraph(n, edges)


# every edge tuple canonical_form has returned, so that all forms share them;
# one entry per distinct edge, at most 2^caps.canon
_EDGES: dict[tuple[int, ...], tuple[int, ...]] = {}


def canonical_form(g: Hypergraph, caps: Caps = Caps()) -> Hypergraph:
    """A canonical representative of g's isomorphism class.

    The form is g relabeled by the labeling whose sequence is lex-least
    over all n! labelings.  Labels 0..n-1 are given one vertex at a time,
    and labeling a vertex appends the entry (-row_size, row), where row
    holds the edges it closes (all their vertices now labeled) as sorted
    tuples of new labels, sorted.  Closing many small-label edges early is
    preferred, which keeps the tie plateaus short on sparse inputs.  Two
    hypergraphs are isomorphic iff their canonical forms are equal.

    The search cuts a node whose prefix is larger than the best sequence's,
    and it follows only the candidates whose entry is the least at their
    node, since every leaf below a larger entry is larger.  Two more prunes
    skip only branches that an automorphism fixing the labeled prefix
    pointwise maps onto a branch already searched.  That map carries the
    searched branch's leaves onto the skipped branch's leaves with equal
    sequences, so every prune keeps the lex-least sequence, and the form
    is the one the full search gives.

    * Twin classes: u and v are twins when their transposition is an
      automorphism.  Twins form classes, and a node tries only the first
      unlabeled vertex of each class.
    * Leaf automorphisms: a leaf whose sequence equals the best one gives
      the automorphism best_order[i] -> cur[i].  A node skips a candidate
      in the orbit of one already tried, under the recorded automorphisms
      that fix its prefix pointwise.  The search also returns at once to
      the last node the two leaves share, since the rest of the current
      branch there is the image of the best leaf's branch.  This is the
      automorphism pruning of McKay, "Practical graph isomorphism" (1981).

    Every form takes its edge tuples from one module-level table, which
    holds one entry per distinct edge ever returned (at most 4,096 at the
    default cap of 12), so forms share the same tuple objects.  A kept
    K_{5,5} form then takes 0.42 KB instead of 1.73 KB; that memory is held
    by whatever keeps forms, such as the set of classes an up-to-isomorphism
    enumeration has emitted.  The search state is freed on return.
    """
    if g.n > caps.canon:
        raise CapacityError(
            f"canonical_form capped at n <= {caps.canon}, got n = {g.n}")
    n = g.n
    m = len(g.edges)
    edge_masks = g.edge_masks
    edge_set = set(edge_masks)
    # incident[v] = (mask, vertices) of the edges containing v
    incident: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(n)]
    for em, e in zip(edge_masks, g.edges):
        for v in e:
            incident[v].append((em, e))
    # earlier_twins[v] = mask of v's twins below v
    earlier_twins = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            pair = (1 << u) | (1 << v)
            if all((em ^ pair if (em & pair) in (1 << u, 1 << v) else em) in edge_set
                   for em in edge_masks):
                earlier_twins[v] |= 1 << u

    best_seq: list | None = None
    best_order: list[int] = []
    autos: list[tuple[list[int], int]] = []  # (permutation, mask of its fixed points)
    label = [0] * n
    order: list[int] = []

    def leaf(pos: int, seq: list) -> int | None:
        """Keep a smaller leaf as the best.  For a leaf equal to the best,
        record the automorphism and return the depth of their last shared
        node."""
        nonlocal best_seq, best_order
        # the unlabeled vertices are isolated and only add empty rows
        full = seq + [(0, ())] * (n - pos)
        if best_seq is None or full < best_seq:
            best_seq, best_order = full, order[:]
            return None
        if full != best_seq:
            return None
        perm = [0] * n
        fixed = 0
        for b, c in zip(best_order + [v for v in range(n) if v not in best_order],
                        order + [v for v in range(n) if v not in order]):
            perm[b] = c
            if b == c:
                fixed |= 1 << b
        autos.append((perm, fixed))
        return next(k for k, (b, c) in enumerate(zip(best_order, order)) if b != c)

    def dfs(pos: int, labeled: int, seq: list, closed: int) -> int | None:
        """Search below the labeled prefix `order`.  A return value k < pos
        means: unwind to depth k."""
        if closed == m:
            return leaf(pos, seq)
        entries = {}
        for u in range(n):
            bit = 1 << u
            if labeled & bit or earlier_twins[u] & ~labeled:
                continue
            now = labeled | bit
            label[u] = pos
            row = sorted(tuple(sorted(label[w] for w in e))
                         for em, e in incident[u] if not em & ~now)
            entries[u] = (-len(row), tuple(row))
        least = min(entries.values())
        seq.append(least)
        back = None
        if best_seq is None or seq <= best_seq[: pos + 1]:
            tried = 0  # candidates searched here, closed under the orbits
            for u, entry in entries.items():
                if entry != least or tried >> u & 1:
                    continue
                label[u] = pos
                order.append(u)
                back = dfs(pos + 1, labeled | 1 << u, seq, closed + len(least[1]))
                order.pop()
                if back is not None and back < pos:
                    break
                back = None
                tried = _orbit_closure(
                    tried | 1 << u, [p for p, fixed in autos if not labeled & ~fixed])
        seq.pop()
        return back

    try:
        dfs(0, 0, [], 0)
    finally:
        # dfs refers to itself through its closure; without this each call
        # would leave its search state for a cyclic collection to free
        dfs = None
    assert best_seq is not None
    # relabeling keeps the edges distinct sorted tuples in 0..n-1
    return Hypergraph._from_normalized(
        n, tuple(sorted(_EDGES.setdefault(t, t) for _, row in best_seq for t in row)))


def _orbit_closure(mask: int, perms: list[list[int]]) -> int:
    """The union of the orbits of mask's vertices under the group the
    permutations generate."""
    stack = list(vertices_of(mask))
    while stack:
        v = stack.pop()
        for p in perms:
            w = p[v]
            if not mask >> w & 1:
                mask |= 1 << w
                stack.append(w)
    return mask

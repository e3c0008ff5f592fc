"""Builders for the named families: the extremal candidate H(r,d), complete
r-partite r-graphs, cyclic 3-partite transversal designs, matchings, and
random quasi-bipartite regular instances.

Vertex layout conventions are fixed so serialized output is stable:
H(r,d) lists its d marked vertices first, then the d groups of r-1 vertices
as consecutive blocks; partite constructions list their parts as consecutive
blocks.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import Hypergraph, VertexSet
from .errors import InvalidArgumentError

_MAX_DEALS = 200_000  # deals random_quasi_bipartite tries before it gives up


@dataclass(frozen=True)
class HrdLayout:
    """Vertex layout of H(r,d): marked transversal vertices plus the
    (r-1)-uniform matching groups they all attach to."""

    r: int
    d: int
    marked: VertexSet
    groups: tuple[tuple[int, ...], ...]


def build_hrd(r: int, d: int) -> tuple[Hypergraph, HrdLayout]:
    """The d-regular r-partite r-graph on r*d vertices with d^2 edges: each of
    d marked vertices joined to each edge of an (r-1)-uniform perfect matching
    on the remaining (r-1)*d vertices.

    H(2,d) is the complete bipartite graph K_{d,d}.
    """
    if r < 2:
        raise InvalidArgumentError(f"uniformity r must be >= 2, got {r}")
    if d < 1:
        raise InvalidArgumentError(f"degree d must be >= 1, got {d}")
    marked = tuple(range(d))
    groups = tuple(
        tuple(range(d + i * (r - 1), d + (i + 1) * (r - 1))) for i in range(d))
    edges = [(m,) + grp for m in marked for grp in groups]
    g = Hypergraph(r * d, edges)
    return g, HrdLayout(r=r, d=d, marked=frozenset(marked), groups=groups)


def build_complete_r_partite(r: int, t: int) -> Hypergraph:
    """Complete r-partite r-graph with parts of size t: all t^r transversals
    of r consecutive blocks of t vertices.  The result is t^(r-1)-regular."""
    if r < 2:
        raise InvalidArgumentError(f"uniformity r must be >= 2, got {r}")
    if t < 1:
        raise InvalidArgumentError(f"part size t must be >= 1, got {t}")
    parts = [range(i * t, (i + 1) * t) for i in range(r)]
    edges = [tuple(choice) for choice in itertools.product(*parts)]
    return Hypergraph(r * t, edges)


def build_transversal_design_3(m: int) -> Hypergraph:
    """3-partite transversal design from the cyclic Latin square of order m:
    edges {x_i, y_j, z_k} with k = i + j mod m.  m-regular, linear, m^2 edges."""
    if m < 1:
        raise InvalidArgumentError(f"order m must be >= 1, got {m}")
    edges = [(i, m + j, 2 * m + (i + j) % m)
             for i in range(m) for j in range(m)]
    return Hypergraph(3 * m, edges)


def build_matching(r: int, k: int) -> Hypergraph:
    """k disjoint r-sets on r*k vertices (1-regular)."""
    if r < 1:
        raise InvalidArgumentError(f"edge size r must be >= 1, got {r}")
    if k < 0:
        raise InvalidArgumentError(f"edge count k must be >= 0, got {k}")
    edges = [tuple(range(i * r, (i + 1) * r)) for i in range(k)]
    return Hypergraph(r * k, edges)


def random_quasi_bipartite(r: int, d: int, num_a: int,
                           rng: random.Random) -> Hypergraph:
    """A random d-regular quasi-bipartite r-graph with num_a A-side vertices.

    Vertices 0..num_a-1 form the A side; the B side has (r-1)*num_a vertices.
    Each A-vertex receives d pairwise-disjoint (r-1)-sets of B-vertices as its
    link.  B-side coverage is dealt from a shuffled deck holding each B-vertex
    d times; deals giving an A-vertex a repeated B-vertex are rejected, so the
    output is d-regular on both sides by construction.  RuntimeError after
    200,000 rejected deals.
    """
    if r < 2 or d < 1 or num_a < d:
        raise InvalidArgumentError(
            f"need r >= 2, d >= 1 and num_a >= d, got r={r}, d={d}, num_a={num_a}")
    nb = (r - 1) * num_a
    b_verts = list(range(num_a, num_a + nb))
    per_a = d * (r - 1)
    for _ in range(_MAX_DEALS):
        deck = [b for b in b_verts for _ in range(d)]
        rng.shuffle(deck)
        edges = []
        ok = True
        for a in range(num_a):
            chunk = deck[a * per_a:(a + 1) * per_a]
            if len(set(chunk)) != per_a:
                ok = False
                break
            rng.shuffle(chunk)
            for i in range(d):
                group = tuple(sorted(chunk[i * (r - 1):(i + 1) * (r - 1)]))
                edges.append((a,) + group)
        if ok:
            return Hypergraph(num_a + nb, edges)
    raise RuntimeError(
        f"no d-regular deal found in {_MAX_DEALS} attempts "
        f"for r={r}, d={d}, num_a={num_a}")

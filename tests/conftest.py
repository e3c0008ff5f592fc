import itertools
import random

import pytest

from hyperind import Hypergraph

# the labeled (r, d, n) ranges of the benchmark's sweep workload
SWEEP_RANGES = [(2, 1, 10), (2, 2, 9), (2, 3, 8), (3, 1, 12), (3, 2, 6)]


def random_hypergraph(n: int, r: int, rng: random.Random,
                      max_edges: int | None = None) -> Hypergraph:
    """A random simple r-uniform hypergraph on n vertices."""
    pool = list(itertools.combinations(range(n), r))
    cap = min(len(pool), 2 * n if max_edges is None else max_edges)
    m = rng.randint(0, cap)
    return Hypergraph(n, rng.sample(pool, m))


def brute_is_independent(g: Hypergraph, s: frozenset[int]) -> bool:
    """Definition-level oracle: no edge is a subset of s."""
    return not any(set(e) <= s for e in g.edges)


def brute_count(g: Hypergraph) -> int:
    """Pure-python oracle counting independent sets one subset at a time."""
    total = 0
    for bits in itertools.product((0, 1), repeat=g.n):
        s = frozenset(v for v in range(g.n) if bits[v])
        if brute_is_independent(g, s):
            total += 1
    return total


def link_edges(g: Hypergraph, v: int) -> tuple[tuple[int, ...], ...]:
    """The link of v: the remainders e - {v} of v's edges, sorted."""
    return tuple(sorted(tuple(u for u in e if u != v) for e in g.edges if v in e))


def is_matching(edges) -> bool:
    """True iff the edges are pairwise disjoint."""
    return all(not set(e) & set(f) for e, f in itertools.combinations(edges, 2))


def reference_verify_certificate(cert, g: Hypergraph) -> bool:
    """Re-check a quasi-bipartite certificate against g from scratch: (A, B)
    partitions the vertices, every edge meets A once, and each A-vertex's
    link is a matching, recorded in cert.link_matchings."""
    if cert.a_side | cert.b_side != frozenset(range(g.n)):
        return False
    if cert.a_side & cert.b_side:
        return False
    if any(len(set(e) & cert.a_side) != 1 for e in g.edges):
        return False
    if set(cert.link_matchings) != cert.a_side:
        return False
    for a in cert.a_side:
        link = link_edges(g, a)
        if not is_matching(link) or cert.link_matchings[a] != link:
            return False
    return True


@pytest.fixture
def rng():
    return random.Random(20260823)

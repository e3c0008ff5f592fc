import itertools
import pickle
import random

import pytest

from hyperind import Hypergraph, InvalidArgumentError, enumeration, \
    write_hypergraph
from hyperind.verification import infer_uniform_regular

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


def reference_infer_uniform_regular(g):
    """Inference as it ran before its degree check moved into ``list.count``:
    the edge-size and degree loops alone."""
    if not g.edges:
        raise InvalidArgumentError("hypergraph has no edges (degree d = 0 is rejected)")
    r = len(g.edges[0])
    for e in g.edges:
        if len(e) != r:
            raise InvalidArgumentError(
                f"not uniform: edge {e} has size {len(e)}, expected {r}")
    if r < 2:
        raise InvalidArgumentError("uniformity r must be >= 2")
    degs = g.degrees()
    d = degs[0] if g.n else 0
    for v, dv in enumerate(degs):
        if dv != d:
            raise InvalidArgumentError(
                f"not regular: vertex {v} has degree {dv}, vertex 0 has degree {d}")
    if d < 1:
        raise InvalidArgumentError("degree d must be >= 1")
    return r, d


def assert_recorded_pair_is_invisible(g, pair):
    """g was emitted with its (r, d) recorded: the pair is the one the
    reference loops infer from the same edges, and g compares, hashes,
    prints, writes and survives a pickle round trip like an unrecorded
    copy."""
    assert vars(g)["_uniform_regular"] == pair, g
    h = Hypergraph(g.n, g.edges)
    assert infer_uniform_regular(g) == reference_infer_uniform_regular(h) == pair
    assert g == h and hash(g) == hash(h), g
    assert repr(g) == repr(h) and write_hypergraph(g) == write_hypergraph(h)
    back = pickle.loads(pickle.dumps(g))
    assert back == h and hash(back) == hash(h) and repr(back) == repr(h)


def refuse_graphs(monkeypatch):
    """Make every way the enumeration builds a graph raise: through
    ``Hypergraph._from_normalized``, and through ``Hypergraph.__new__`` as
    the enumeration module looks it up, which its counted loop calls to
    write each graph's instance dict itself."""
    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    class Refused:
        __new__ = _from_normalized = refuse

    monkeypatch.setattr(Hypergraph, "_from_normalized", refuse)
    monkeypatch.setattr(enumeration, "Hypergraph", Refused)


@pytest.fixture
def rng():
    return random.Random(20260823)

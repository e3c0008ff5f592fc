import gc
import itertools
import random
import sys
import time

import pytest

from hyperind import (Caps, CapacityError, EnumSpec, Hypergraph,
                      InvalidArgumentError, QuasiBipartition,
                      build_complete_r_partite, build_hrd, build_matching,
                      build_transversal_design_3, canonical_form,
                      disjoint_union, enumerate_regular, quasi_bipartition,
                      random_quasi_bipartite)
from hyperind.counting import count_brute

from conftest import (brute_is_independent, is_matching, link_edges,
                      random_hypergraph, reference_verify_certificate)


def triangle():
    return Hypergraph(3, [(0, 1), (1, 2), (0, 2)])


def k22():
    return Hypergraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])


def relabeled(g: Hypergraph, rng: random.Random) -> Hypergraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Hypergraph(g.n, [tuple(perm[v] for v in e) for e in g.edges])


def cycle(n: int) -> Hypergraph:
    return Hypergraph(n, [(i, (i + 1) % n) for i in range(n)])


def reference_canonical_form(g: Hypergraph) -> Hypergraph:
    """canonical_form without symmetry pruning: the lex-least sequence over
    all labelings, found with the prefix cut alone."""
    n = g.n
    m = len(g.edges)
    edge_sets = [frozenset(e) for e in g.edges]
    incident: list[list[int]] = [[] for _ in range(n)]
    for i, e in enumerate(edge_sets):
        for v in e:
            incident[v].append(i)
    best_seq: list | None = None
    best_edges: tuple | None = None
    new_label: dict[int, int] = {}

    def dfs(pos: int, seq: list, closed: int) -> None:
        nonlocal best_seq, best_edges
        if closed == m:
            full = seq + [(0, ())] * (n - pos)
            if best_seq is None or full < best_seq:
                best_seq = full
                best_edges = tuple(t for _, row in seq for t in row)
            return
        for u in range(n):
            if u in new_label:
                continue
            new_label[u] = pos
            row = []
            for i in incident[u]:
                e = edge_sets[i]
                if all(w in new_label for w in e):
                    row.append(tuple(sorted(new_label[w] for w in e)))
            row.sort()
            seq.append((-len(row), tuple(row)))
            if best_seq is None or seq <= best_seq[: pos + 1]:
                dfs(pos + 1, seq, closed + len(row))
            seq.pop()
            del new_label[u]

    dfs(0, [], 0)
    return Hypergraph(n, best_edges)


def reference_quasi_bipartition(g: Hypergraph) -> QuasiBipartition | None:
    """quasi_bipartition without the link filter: a recursive search over
    each edge's A-vertex, in lexicographic edge order and increasing vertex
    order, that checks the links only at the leaves."""
    r = g.uniformity()
    if g.num_edges and (r is None or r < 2):
        raise InvalidArgumentError("not r-uniform with r >= 2")
    side: list[str | None] = [None] * g.n
    edges = g.edges

    def complete() -> QuasiBipartition | None:
        a_side = frozenset(v for v in range(g.n) if side[v] == "A")
        links = {a: link_edges(g, a) for a in a_side}
        if not all(is_matching(link) for link in links.values()):
            return None
        return QuasiBipartition(a_side, frozenset(range(g.n)) - a_side, links)

    def backtrack(i: int) -> QuasiBipartition | None:
        if i == len(edges):
            return complete()
        e = edges[i]
        a_here = [v for v in e if side[v] == "A"]
        if len(a_here) > 1:
            return None
        for rep in a_here or [v for v in e if side[v] is None]:
            changes = []
            if side[rep] is None:
                side[rep] = "A"
                changes.append(rep)
            for v in e:
                if v != rep and side[v] is None:
                    side[v] = "B"
                    changes.append(v)
            found = backtrack(i + 1)
            if found is not None:
                return found
            for v in changes:
                side[v] = None
        return None

    return backtrack(0)


def random_mixed_hypergraph(n: int, rng: random.Random) -> Hypergraph:
    """Random edges of sizes 1..4 on n vertices; some vertices stay isolated."""
    edges = []
    for _ in range(rng.randint(0, 2 * n)):
        k = rng.randint(1, min(n, 4))
        edges.append(rng.sample(range(n), k))
    return Hypergraph(n, edges)


class TestDegree:
    def test_single_edge(self):
        g = Hypergraph(3, [(0, 1, 2)])
        assert g.degrees() == [1, 1, 1]

    def test_hrd_marked_vertex(self):
        g, layout = build_hrd(3, 2)
        degs = g.degrees()
        for v in layout.marked:
            assert degs[v] == 2

    def test_no_edges(self):
        g = Hypergraph(4)
        assert g.degrees() == [0, 0, 0, 0]


class TestLink:
    """The links a quasi-bipartite certificate records for its A-vertices."""

    def test_bipartite_graph(self):
        cert = quasi_bipartition(k22())
        assert cert.link_matchings == {0: ((2,), (3,)), 1: ((2,), (3,))}
        assert set().union(*cert.link_matchings[0]) == {2, 3}

    def test_hrd_marked_is_matching(self):
        g, layout = build_hrd(3, 2)
        cert = quasi_bipartition(g)
        assert cert.a_side == layout.marked
        for v in layout.marked:
            link = cert.link_matchings[v]
            assert len(link) == 2
            assert is_matching(link)
            assert all(len(e) == 2 for e in link)

    def test_single_edge(self):
        g = Hypergraph(3, [(0, 1, 2)])
        assert quasi_bipartition(g).link_matchings == {0: ((1, 2),)}

    def test_regular_link_shape(self):
        # d edges of size r-1 at every vertex of H(r,d); the certificate
        # records exactly those links for its A-vertices
        for r, d in [(2, 2), (3, 2), (3, 3), (4, 2)]:
            g, _ = build_hrd(r, d)
            for v in range(g.n):
                link = link_edges(g, v)
                assert len(link) == d == g.degrees()[v]
                assert all(len(e) == r - 1 for e in link)
            cert = quasi_bipartition(g)
            assert cert.link_matchings == {a: link_edges(g, a)
                                           for a in cert.a_side}


class TestIsIndependent:
    def test_proper_subset_of_edge(self):
        g = Hypergraph(3, [(0, 1, 2)])
        assert g.is_independent({0, 1})

    def test_full_edge(self):
        g = Hypergraph(3, [(0, 1, 2)])
        assert not g.is_independent({0, 1, 2})

    def test_empty_set(self):
        g, _ = build_hrd(3, 1)
        assert g.is_independent(frozenset())

    def test_against_definition(self, rng):
        for _ in range(50):
            g = random_hypergraph(7, rng.choice([2, 3]), rng)
            for bits in itertools.product((0, 1), repeat=g.n):
                s = frozenset(v for v in range(g.n) if bits[v])
                assert g.is_independent(s) == brute_is_independent(g, s)

    def test_componentwise(self, rng):
        g1 = random_hypergraph(5, 2, rng)
        g2 = random_hypergraph(4, 3, rng)
        g = disjoint_union([g1, g2])
        for _ in range(100):
            s = frozenset(v for v in range(g.n) if rng.random() < 0.5)
            expected = (g1.is_independent({v for v in s if v < 5})
                        and g2.is_independent({v - 5 for v in s if v >= 5}))
            assert g.is_independent(s) == expected


def gadget() -> Hypergraph:
    """Three triples at vertex 0: every edge can take one A-vertex, but 0's
    link is a path and the other choices leave a two-edge link too."""
    return Hypergraph(5, [(0, 1, 2), (0, 2, 3), (0, 3, 4)])


def recogniser_inputs() -> list[Hypergraph]:
    """The recogniser inputs of these tests, and seeded random ones."""
    gs = [triangle(), k22(), cycle(5), gadget(),
          Hypergraph(4, list(itertools.combinations(range(4), 3)))]
    gs += [build_hrd(r, d)[0] for r, d in
           [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 1)]]
    rng = random.Random(20260823)
    gs += [random_hypergraph(7, 3, rng, max_edges=6) for _ in range(30)]
    rng = random.Random(16)
    for _ in range(3000):
        r = rng.randint(2, 4)
        gs.append(random_hypergraph(rng.randint(r, 10), r, rng, max_edges=9))
    for r, d, num_a in [(2, 1, 3), (2, 2, 4), (3, 2, 4), (3, 2, 5), (4, 1, 2),
                        (3, 3, 4), (4, 2, 3)]:
        for _ in range(10):
            g = random_quasi_bipartite(r, d, num_a, rng)
            gs += [g, relabeled(g, rng)]
    return gs


class TestQuasiBipartition:
    def test_hrd(self):
        g, layout = build_hrd(3, 2)
        cert = quasi_bipartition(g)
        assert cert is not None
        assert cert.a_side == layout.marked
        assert reference_verify_certificate(cert, g)

    def test_hrd_family(self):
        for r, d in [(2, 1), (2, 3), (3, 3), (4, 2), (5, 1)]:
            g, layout = build_hrd(r, d)
            cert = quasi_bipartition(g)
            assert cert is not None and reference_verify_certificate(cert, g)

    def test_triangle_is_not(self):
        assert quasi_bipartition(triangle()) is None

    def test_odd_cycle_is_not(self):
        assert quasi_bipartition(cycle(5)) is None

    def test_k22_matches_brute_force(self):
        # oracle: try all 2^4 partitions directly against the two conditions
        g = k22()

        def valid(a_side):
            if any(len(set(e) & a_side) != 1 for e in g.edges):
                return False
            return all(is_matching(link_edges(g, a)) for a in a_side)

        valid_sides = [frozenset(a) for k in range(5)
                       for a in itertools.combinations(range(4), k)
                       if valid(frozenset(a))]
        assert valid_sides == [frozenset({0, 1}), frozenset({2, 3})]
        cert = quasi_bipartition(g)
        assert cert is not None and cert.a_side in valid_sides

    def test_edge_inside_b_side_rejected(self):
        # an edge with no A-candidate left: the full 3-uniform clique on 4 verts
        g = Hypergraph(4, list(itertools.combinations(range(4), 3)))
        assert quasi_bipartition(g) is None

    def test_non_matching_link_rejected(self):
        # condition I is satisfiable in several ways, but every choice of
        # A-side leaves some vertex with a non-matching link
        assert quasi_bipartition(gadget()) is None

    def test_non_uniform_rejected(self):
        with pytest.raises(InvalidArgumentError, match="r-uniform"):
            quasi_bipartition(Hypergraph(4, [(0, 1), (0, 1, 2)]))

    def test_certificate_verifies_from_scratch(self, rng):
        for _ in range(30):
            g = random_hypergraph(7, 3, rng, max_edges=6)
            cert = quasi_bipartition(g) if g.uniformity() == 3 else None
            if cert is not None:
                assert reference_verify_certificate(cert, g)

    def test_agrees_with_reference_search(self):
        # the same certificate, or None, as the unfiltered recursive search
        certified = 0
        for g in recogniser_inputs():
            cert = quasi_bipartition(g)
            ref = reference_quasi_bipartition(g)
            if ref is None:
                assert cert is None, g
            else:
                certified += 1
                assert cert is not None, g
                assert (cert.a_side, cert.b_side, cert.link_matchings) == \
                    (ref.a_side, ref.b_side, ref.link_matchings), g
                assert reference_verify_certificate(cert, g)
        assert certified > 1000

    def test_long_inputs_do_not_recurse(self):
        # one search frame per edge, far more edges than the recursion limit
        c2000 = cycle(2000)
        matching = build_matching(2, 1200)
        assert sys.getrecursionlimit() < matching.num_edges
        cert = quasi_bipartition(c2000)
        assert cert is not None and cert.a_side == frozenset(range(0, 2000, 2))
        assert reference_verify_certificate(cert, c2000)
        cert = quasi_bipartition(matching)
        assert cert is not None and cert.a_side == frozenset(range(0, 2400, 2))
        assert reference_verify_certificate(cert, matching)
        assert quasi_bipartition(cycle(2001)) is None

    def test_bad_links_are_never_tried(self):
        # without the link filter each copy of the gadget multiplies the
        # search by about 3.2, so 16 copies would take about half an hour
        g = disjoint_union([gadget()] * 16)
        start = time.perf_counter()
        assert quasi_bipartition(g) is None
        assert time.perf_counter() - start < 1.0


class TestDisjointUnion:
    def test_two_edges(self):
        g = disjoint_union([Hypergraph(2, [(0, 1)]), Hypergraph(2, [(0, 1)])])
        assert g.n == 4
        assert g.edges == ((0, 1), (2, 3))

    def test_ind_multiplicativity(self):
        g, _ = build_hrd(3, 1)
        u = disjoint_union([g, g])
        assert u.n == 6 and u.num_edges == 2
        assert count_brute(u) == 49

    def test_empty(self):
        g = disjoint_union([])
        assert g.n == 0 and g.edges == ()


class TestCanonicalForm:
    def test_matchings_agree(self):
        g = Hypergraph(4, [(1, 2), (0, 3)])
        h = Hypergraph(4, [(0, 1), (2, 3)])
        assert canonical_form(g) == canonical_form(h)

    def test_c4_vs_p4(self):
        c4 = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        p4 = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        assert canonical_form(c4) != canonical_form(p4)

    def test_random_permutation_of_hrd(self, rng):
        g, _ = build_hrd(3, 2)
        canon = canonical_form(g)
        for _ in range(10):
            perm = list(range(g.n))
            rng.shuffle(perm)
            permuted = Hypergraph(g.n, [tuple(perm[v] for v in e) for e in g.edges])
            assert canonical_form(permuted) == canon

    def test_invariance_exhaustive_small(self, rng):
        for _ in range(15):
            n = rng.randint(1, 5)
            g = random_hypergraph(n, rng.choice([2, 3]) if n >= 3 else 2, rng)
            canon = canonical_form(g)
            for perm in itertools.permutations(range(n)):
                permuted = Hypergraph(n, [tuple(perm[v] for v in e) for e in g.edges])
                assert canonical_form(permuted) == canon

    def test_invariance_sampled_medium(self, rng):
        for n in range(7, 13):
            g = random_hypergraph(n, 3, rng, max_edges=n)
            canon = canonical_form(g)
            for _ in range(3):
                perm = list(range(n))
                rng.shuffle(perm)
                permuted = Hypergraph(n, [tuple(perm[v] for v in e) for e in g.edges])
                assert canonical_form(permuted) == canon

    def test_idempotent(self, rng):
        for _ in range(20):
            g = random_hypergraph(rng.randint(1, 8), 2, rng)
            canon = canonical_form(g)
            assert canonical_form(canon) == canon

    def test_forms_share_their_edge_tuples(self, rng):
        g = build_complete_r_partite(2, 5)
        a, b = canonical_form(relabeled(g, rng)), canonical_form(relabeled(g, rng))
        assert a == b
        assert all(x is y for x, y in zip(a.edges, b.edges))
        # a form is the value the public constructor builds from its edges
        built = Hypergraph(a.n, reversed(a.edges))
        assert a == built and hash(a) == hash(built) and a.edges == built.edges
        assert a.edge_masks == built.edge_masks

    def test_no_reference_cycle_left(self, rng):
        g = build_complete_r_partite(2, 5)
        gc.disable()
        try:
            gc.collect()
            for _ in range(10):
                canonical_form(relabeled(g, rng))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_cap(self):
        with pytest.raises(CapacityError):
            canonical_form(Hypergraph(13))
        assert canonical_form(Hypergraph(13), caps=Caps(canon=13)) == Hypergraph(13)
        with pytest.raises(CapacityError):
            canonical_form(triangle(), caps=Caps(canon=2))


class TestCanonicalFormAgainstReference:
    """The pruned search gives the same forms as the unpruned reference."""

    def test_every_labeled_graph_of_the_iso_ranges(self):
        specs = ([(2, 2, n) for n in range(3, 8)]
                 + [(2, 3, n) for n in range(4, 7)] + [(3, 2, 6), (3, 3, 6)])
        graphs: list[Hypergraph] = []
        for r, d, n in specs:
            enumerate_regular(EnumSpec(r=r, d=d, n=n), graphs.append)
        assert len(graphs) == 1027
        for g in graphs:
            assert canonical_form(g) == reference_canonical_form(g), g

    def test_relabeled_symmetric_constructions(self, rng):
        for g in [build_hrd(3, 4)[0], build_complete_r_partite(2, 5),
                  build_transversal_design_3(4)]:
            want = reference_canonical_form(g)
            for _ in range(3):
                assert canonical_form(relabeled(g, rng)) == want

    def test_random_mixed_sizes(self, rng):
        for n in [0, 1, 2, 3, 4, 5, 6, 7, 8]:
            assert canonical_form(Hypergraph(n)) == Hypergraph(n)
            for _ in range(25):
                g = random_mixed_hypergraph(n, rng)
                assert canonical_form(g) == reference_canonical_form(g), g


class TestCanonicalFormAtTheCap:
    """Symmetric inputs at n = 12: each relabeling gives the form of the
    unrelabeled graph.  Without symmetry pruning K_{6,6} alone takes
    minutes."""

    @pytest.mark.parametrize("g", [
        build_complete_r_partite(2, 6),
        build_transversal_design_3(4),
        cycle(12),
        disjoint_union([build_complete_r_partite(2, 3)] * 2),
    ], ids=["K6,6", "TD3(4)", "C12", "2K3,3"])
    def test_relabelings(self, g, rng):
        assert g.n == 12
        want = canonical_form(g)
        for _ in range(5):
            assert canonical_form(relabeled(g, rng)) == want


def incidence_graph(nx, g: Hypergraph):
    b = nx.Graph()
    b.add_nodes_from((("v", v) for v in range(g.n)), side=0)
    b.add_nodes_from((("e", e) for e in g.edges), side=1)
    b.add_edges_from((("v", v), ("e", e)) for e in g.edges for v in e)
    return b


def degree_preserving_swap(g: Hypergraph, rng: random.Random) -> Hypergraph:
    """Trade a vertex of one edge for a vertex of another, keeping every
    degree and edge size; g itself when no trade applies."""
    edges = [set(e) for e in g.edges]
    for _ in range(20):
        e1, e2 = rng.sample(edges, 2)
        only1, only2 = sorted(e1 - e2), sorted(e2 - e1)
        if not only1 or not only2:
            continue
        a, b = rng.choice(only1), rng.choice(only2)
        new1, new2 = (e1 - {a}) | {b}, (e2 - {b}) | {a}
        rest = [e for e in edges if e is not e1 and e is not e2]
        if new1 in rest or new2 in rest:
            continue
        return Hypergraph(g.n, rest + [new1, new2])
    return g


class TestCanonicalFormIsomorphismOracle:
    def test_equal_forms_iff_incidence_graphs_isomorphic(self, rng):
        nx = pytest.importorskip("networkx")
        same_side = nx.algorithms.isomorphism.categorical_node_match("side", None)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(5, 9)
            g = random_mixed_hypergraph(n, rng)
            if g.num_edges < 2:
                continue
            h = relabeled(degree_preserving_swap(g, rng), rng)
            assert sorted(h.degrees()) == sorted(g.degrees())
            assert h.num_edges == g.num_edges
            iso = nx.is_isomorphic(incidence_graph(nx, g), incidence_graph(nx, h),
                                   node_match=same_side)
            assert (canonical_form(g) == canonical_form(h)) == iso, (g, h)
            outcomes.add(iso)
        assert outcomes == {False, True}


class TestHypergraphBasics:
    def test_edges_normalized(self):
        g = Hypergraph(4, [(2, 1), (0, 3), (1, 2)])
        assert g.edges == ((0, 3), (1, 2))

    def test_empty_edge_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Hypergraph(3, [()])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Hypergraph(2, [(0, 3)])

    def test_uniformity_and_regularity(self):
        g, _ = build_hrd(3, 2)
        assert g.uniformity() == 3
        assert g.regularity() == 2
        mixed = Hypergraph(3, [(0, 1), (0, 1, 2)])
        assert mixed.uniformity() is None

    def test_from_normalized_records_only_an_accepted_pair(self):
        # the pair is recorded only where the inference loops would accept
        # the graph: r >= 2, d >= 1 and at least one edge
        g = Hypergraph._from_normalized(4, ((0, 1), (2, 3)), (2, 1))
        assert vars(g)["_uniform_regular"] == (2, 1)
        for n, edges, pair in [(3, ((0,), (1,), (2,)), (1, 1)),
                               (4, (), (2, 0)), (0, (), (2, 2)),
                               (4, ((0, 1), (2, 3)), None)]:
            h = Hypergraph._from_normalized(n, edges, pair)
            assert "_uniform_regular" not in vars(h)
            assert h == Hypergraph(n, edges)

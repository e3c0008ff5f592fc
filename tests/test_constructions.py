import itertools
import random

import pytest

from hyperind import (Hypergraph, InvalidArgumentError, build_complete_r_partite,
                      build_hrd, build_matching, build_transversal_design_3,
                      canonical_form, quasi_bipartition, random_quasi_bipartite)
from hyperind.counting import count_brute

from conftest import is_matching, link_edges, reference_verify_certificate


def is_linear(g: Hypergraph) -> bool:
    for e1, e2 in itertools.combinations(g.edges, 2):
        if len(set(e1) & set(e2)) > 1:
            return False
    return True


class TestBuildHrd:
    def test_h2_3_is_k33(self):
        g, _ = build_hrd(2, 3)
        k33 = build_complete_r_partite(2, 3)
        assert canonical_form(g) == canonical_form(k33)

    def test_h3_1_single_edge(self):
        g, _ = build_hrd(3, 1)
        assert g == Hypergraph(3, [(0, 1, 2)])

    def test_h3_2_explicit(self):
        g, _ = build_hrd(3, 2)
        assert g.edges == ((0, 2, 3), (0, 4, 5), (1, 2, 3), (1, 4, 5))
        assert g.regularity() == 2

    def test_shape(self):
        for r, d in [(2, 1), (2, 4), (3, 3), (4, 2), (5, 2)]:
            g, layout = build_hrd(r, d)
            assert g.n == r * d
            assert g.num_edges == d * d
            assert g.uniformity() == r
            assert g.regularity() == d
            assert len(layout.marked) == d
            assert len(layout.groups) == d

    def test_quasi_bipartite_with_marked_a_side(self):
        for r, d in [(2, 2), (3, 2), (3, 3), (4, 2)]:
            g, layout = build_hrd(r, d)
            cert = quasi_bipartition(g)
            assert cert is not None
            assert cert.a_side == layout.marked

    def test_marked_links_are_perfect_matchings(self):
        for r, d in [(3, 2), (3, 3), (4, 2)]:
            g, layout = build_hrd(r, d)
            for a in layout.marked:
                link = link_edges(g, a)
                assert is_matching(link)
                assert len(link) == d
                assert len({v for e in link for v in e}) == (r - 1) * d

    def test_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            build_hrd(1, 2)
        with pytest.raises(InvalidArgumentError):
            build_hrd(3, 0)


class TestCompleteRPartite:
    def test_k22(self):
        g = build_complete_r_partite(2, 2)
        assert g.edges == ((0, 2), (0, 3), (1, 2), (1, 3))

    def test_3_partite_of_2(self):
        g = build_complete_r_partite(3, 2)
        assert g.n == 6 and g.num_edges == 8
        assert g.regularity() == 4

    def test_single_edge(self):
        assert build_complete_r_partite(3, 1) == Hypergraph(3, [(0, 1, 2)])

    def test_regularity_formula(self):
        for r, t in [(2, 3), (3, 2), (4, 2)]:
            assert build_complete_r_partite(r, t).regularity() == t ** (r - 1)

    def test_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            build_complete_r_partite(1, 2)
        with pytest.raises(InvalidArgumentError):
            build_complete_r_partite(3, 0)


class TestTransversalDesign:
    def test_m1_single_edge(self):
        assert build_transversal_design_3(1) == Hypergraph(3, [(0, 1, 2)])

    def test_m2(self):
        g = build_transversal_design_3(2)
        assert g.n == 6 and g.num_edges == 4
        assert g.regularity() == 2
        assert is_linear(g)

    def test_m3(self):
        g = build_transversal_design_3(3)
        assert g.n == 9 and g.num_edges == 9
        assert g.regularity() == 3
        assert is_linear(g)

    def test_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            build_transversal_design_3(0)


class TestMatching:
    def test_counts(self):
        assert count_brute(build_matching(2, 2)) == 9
        assert count_brute(build_matching(3, 1)) == 7
        assert count_brute(build_matching(1, 3)) == 1

    def test_product_law(self):
        # equality case of the per-edge link bound: (2^r - 1)^k
        for r, k in [(1, 2), (2, 3), (3, 2), (4, 1), (2, 0)]:
            g = build_matching(r, k)
            assert count_brute(g) == (2 ** r - 1) ** k

    def test_one_regular(self):
        g = build_matching(3, 4)
        assert g.regularity() == 1


class TestRandomQuasiBipartite:
    def test_structure(self):
        rng = random.Random(5)
        for r, d, num_a in [(2, 1, 3), (2, 2, 4), (3, 2, 4), (3, 2, 5), (4, 1, 2)]:
            g = random_quasi_bipartite(r, d, num_a, rng)
            assert g.n == r * num_a
            assert g.uniformity() == r
            assert g.regularity() == d
            cert = quasi_bipartition(g)
            assert cert is not None and reference_verify_certificate(cert, g)

    def test_deterministic_under_seed(self):
        a = random_quasi_bipartite(3, 2, 4, random.Random(11))
        b = random_quasi_bipartite(3, 2, 4, random.Random(11))
        assert a == b

    def test_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            random_quasi_bipartite(3, 3, 2, random.Random(0))

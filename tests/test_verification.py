import itertools
import math
import random
from dataclasses import replace
from math import log2

import numpy as np
import pytest

from hyperind import (Caps, CapacityError, EnumSpec, Hypergraph,
                      InvalidArgumentError, build_hrd,
                      build_transversal_design_3, check_conjecture,
                      compare_constructions, disjoint_union, entropy,
                      enumerate_regular,
                      joint_distribution, marginal, mask_of, quasi_bipartition,
                      random_quasi_bipartite, verify_proof_steps, vertices_of)
from hyperind import counting, verification
from hyperind.counting import METHODS, count, count_brute, ind_hrd_formula
from hyperind.enumeration import first_edge_choices
from hyperind.verification import (PROOF_EPS, ConjectureVerdict, ProofStep,
                                   ProofStepReport, SubsetDistribution,
                                   _a_vertex_marginals,
                                   _power_sum, _tighter,
                                   infer_uniform_regular, is_union_of_kdd)

from conftest import assert_recorded_pair_is_invisible, link_edges, \
    reference_infer_uniform_regular


def cycle(n):
    return Hypergraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    import itertools
    return Hypergraph(n, itertools.combinations(range(n), 2))


class TestCheckConjecture:
    def test_extremal_equality(self):
        g, _ = build_hrd(3, 2)
        v = check_conjecture(g)
        assert v.holds and v.equality
        assert v.lhs == 43 ** 6 == v.rhs
        assert v.slack_bits == 0.0

    def test_c5(self):
        v = check_conjecture(cycle(5))
        assert (v.r, v.d) == (2, 2)
        assert v.lhs == 11 ** 4 == 14641
        assert v.rhs == 7 ** 5 == 16807
        assert v.holds and not v.equality
        assert v.slack_bits > 0

    def test_k4(self):
        v = check_conjecture(complete_graph(4))
        assert (v.r, v.d) == (2, 3)
        assert v.lhs == 5 ** 6 == 15625
        assert v.rhs == 15 ** 4 == 50625
        assert v.holds and not v.equality

    def test_non_regular_rejected(self):
        g = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(InvalidArgumentError, match="vertex"):
            check_conjecture(g)

    def test_non_uniform_rejected(self):
        g = Hypergraph(4, [(0, 1), (1, 2, 3)])
        with pytest.raises(InvalidArgumentError, match="edge"):
            check_conjecture(g)

    def test_no_edges_rejected(self):
        with pytest.raises(InvalidArgumentError):
            check_conjecture(Hypergraph(4))

    @pytest.mark.parametrize("r,d,n", [(2, 2, 0), (2, 0, 4), (1, 1, 3), (3, 2, 0)])
    def test_emissions_without_a_valid_pair_raise_as_unrecorded(self, r, d, n):
        # enumerate_regular records no (r, d) on an edgeless, d = 0 or r = 1
        # emission, so the verdict raises exactly as on the same edges built
        # by the public constructor
        emitted = []
        assert enumerate_regular(EnumSpec(r=r, d=d, n=n), emitted.append) == 1
        for g in emitted:
            with pytest.raises(InvalidArgumentError) as got:
                check_conjecture(g)
            with pytest.raises(InvalidArgumentError) as want:
                check_conjecture(Hypergraph(g.n, g.edges))
            assert type(got.value) is type(want.value)
            assert str(got.value) == str(want.value)

    def test_methods_agree(self):
        g, _ = build_hrd(3, 2)
        v = check_conjecture(g)
        assert v.equality
        for method in METHODS:
            assert count(g, method) == v.ind_g

    def test_counts_through_count_auto(self, monkeypatch):
        # perfbench's traced sweep and count passes expect count_auto and
        # count_brute calls, so every route is looked up on the module at
        # call time, for built and for enumerated graphs alike
        calls = []

        def spy(name):
            real = getattr(counting, name)

            def wrapper(*args, **kwargs):
                calls.append((name, args[0]))
                return real(*args, **kwargs)
            monkeypatch.setattr(counting, name, wrapper)

        for name in ("count_auto", "count_brute", "count_branch"):
            spy(name)
        g = cycle(5)
        assert count(g) == 11
        assert check_conjecture(g).ind_g == 11
        assert calls == [("count_auto", g), ("count_brute", g)] * 2
        emitted = []
        enumerate_regular(EnumSpec(r=3, d=2, n=6), emitted.append)
        calls.clear()
        for e in emitted:
            check_conjecture(e)
        assert calls == [(name, e) for e in emitted
                         for name in ("count_auto", "count_brute")]
        calls.clear()
        assert count(g, "brute") == count(g, "branch") == 11
        assert calls == [("count_brute", g), ("count_branch", g)]


def _outcome(infer, g):
    try:
        return infer(g)
    except InvalidArgumentError as exc:
        return type(exc), str(exc)


def _regular_graphs():
    graphs = []
    for r, d, n in [(2, 1, 6), (2, 2, 6), (2, 3, 6), (3, 1, 9), (3, 2, 6),
                    (4, 2, 8)]:
        enumerate_regular(EnumSpec(r=r, d=d, n=n), graphs.append)
    return graphs


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Hypergraph(g.n, [[perm[v] for v in e] for e in g.edges])


def _perturb(g, rng):
    """A near miss of the regular uniform g (or g itself)."""
    edges = [list(e) for e in g.edges]
    kind = rng.randrange(7)
    if kind == 0:  # drop an edge
        edges.pop(rng.randrange(len(edges)))
    elif kind == 1:  # an edge of another size
        size = rng.choice([k for k in range(1, g.n + 1) if k != len(edges[0])])
        edges.append(rng.sample(range(g.n), size))
    elif kind == 2:  # an isolated vertex
        return Hypergraph(g.n + 1, edges)
    elif kind == 3:  # move one incidence: degrees d+1 and d-1 sum to n*d
        e = edges[rng.randrange(len(edges))]
        outside = [v for v in range(g.n) if v not in e]
        if outside:
            e[rng.randrange(len(e))] = rng.choice(outside)
    elif kind == 4:  # r = 1: every vertex its own edge
        return Hypergraph(g.n, [(v,) for v in range(g.n)])
    elif kind == 5:  # no edges
        return Hypergraph(g.n)
    return Hypergraph(g.n, edges)


class TestInferUniformRegular:
    """The same (r, d), or the same error naming the same offender, as the
    reference loops."""

    def test_random_regular_and_near_misses(self):
        rng = random.Random(20261018)
        regular = _regular_graphs()
        accepted = rejected = 0
        for _ in range(3000):
            g = _perturb(_relabel(rng.choice(regular), rng), rng)
            got = _outcome(infer_uniform_regular, g)
            assert got == _outcome(reference_infer_uniform_regular, g), g
            if isinstance(got[0], int):
                accepted += 1
            else:
                rejected += 1
        assert accepted > 300 and rejected > 1500

    def test_random_mixed_sizes(self):
        rng = random.Random(20261019)
        for _ in range(500):
            g = _mixed_hypergraph(rng.randint(1, 9), rng)
            assert _outcome(infer_uniform_regular, g) == \
                _outcome(reference_infer_uniform_regular, g), g

    def test_named_cases(self):
        cases = [
            Hypergraph(0), Hypergraph(3), Hypergraph(1, [(0,)]),
            Hypergraph(3, [(0,), (1,), (2,)]),  # r = 1, 1-regular
            Hypergraph(4, [(0, 1), (2, 3)]),  # a perfect matching
            Hypergraph(5, [(0, 1), (2, 3)]),  # and an isolated vertex
            # mixed sizes whose degrees are all 1
            Hypergraph(5, [(0, 1), (2, 3, 4)]),
            # n*d incidences, degrees 3 and 1 where 2 was due
            Hypergraph(4, [(0, 1), (0, 2), (0, 3), (1, 2)]),
            # uniform and regular except that vertex 0 repeats nothing
            Hypergraph(6, [(0, 1, 2), (3, 4, 5), (0, 3, 4), (1, 2, 5)]),
            build_hrd(3, 2)[0], cycle(7), complete_graph(5),
        ]
        for g in cases:
            assert _outcome(infer_uniform_regular, g) == \
                _outcome(reference_infer_uniform_regular, g), g
        assert infer_uniform_regular(build_hrd(3, 2)[0]) == (3, 2)


def _direct_verdict(g, r, d):
    ind = count_brute(g)
    lhs = ind ** (r * d)
    rhs = ind_hrd_formula(r, d) ** g.n
    slack = (math.log2(rhs) - math.log2(lhs)) / (r * d)
    return ConjectureVerdict(holds=lhs <= rhs, equality=lhs == rhs, r=r, d=d,
                             n=g.n, ind_g=ind, lhs=lhs, rhs=rhs,
                             slack_bits=slack)


class TestMemoisedVerdict:
    # the labeled sweep ranges of the conjecture hunt, up to n = 8
    RANGES = [(2, 1, 8), (2, 2, 8), (2, 3, 8), (3, 1, 8), (3, 2, 6)]

    def test_every_sweep_graph_equals_direct_recomputation(self):
        checked = 0
        for r, d, n_max in self.RANGES:
            for n in range(r, n_max + 1):
                def visit(g, r=r, d=d):
                    nonlocal checked
                    assert_recorded_pair_is_invisible(g, (r, d))
                    got = check_conjecture(g)
                    want = _direct_verdict(g, r, d)
                    assert got == want, g
                    assert got.slack_bits.hex() == want.slack_bits.hex(), g
                    checked += 1

                enumerate_regular(EnumSpec(r=r, d=d, n=n), visit)
        assert checked == 23694

    def test_prefix_chunk_graphs_carry_their_pair(self):
        # the worker path: one first-edge chunk of a split run
        spec = EnumSpec(r=3, d=2, n=6)
        first = first_edge_choices(spec)[0]
        emitted = []
        enumerate_regular(replace(spec, prefix=(first,)), emitted.append)
        assert emitted and emitted[0].edges[0] == first
        assert_recorded_pair_is_invisible(emitted[0], (3, 2))
        assert check_conjecture(emitted[0]) == _direct_verdict(emitted[0], 3, 2)

    def test_equal_counts_at_different_n(self):
        c4 = cycle(4)  # r = 2, d = 2, n = 4
        triple = Hypergraph(3, [(0, 1, 2)])  # r = 3, d = 1, n = 3
        a, b = check_conjecture(c4), check_conjecture(triple)
        assert a.ind_g == b.ind_g == 7
        assert (a.r, a.d, a.n, a.rhs) == (2, 2, 4, 7 ** 4)
        assert (b.r, b.d, b.n, b.rhs) == (3, 1, 3, 7 ** 3)
        assert a == _direct_verdict(c4, 2, 2)
        assert b == _direct_verdict(triple, 3, 1)
        assert a.equality and b.equality and a != b

    def test_equal_keys_share_one_verdict(self):
        g = cycle(6)
        relabeled = Hypergraph(6, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)])
        assert check_conjecture(g) is check_conjecture(relabeled)


class TestIsUnionOfKdd:
    def test_kdd_blocks(self):
        k22 = build_hrd(2, 2)[0]
        assert is_union_of_kdd(k22, 2)
        assert is_union_of_kdd(disjoint_union([k22, k22]), 2)

    def test_c4_is_k22(self):
        # C4 is isomorphic to K_{2,2}, whatever the labeling
        assert is_union_of_kdd(cycle(4), 2)
        assert is_union_of_kdd(Hypergraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)]), 2)

    def test_longer_cycles_are_not(self):
        assert not is_union_of_kdd(cycle(6), 2)
        assert not is_union_of_kdd(cycle(8), 2)

    def test_every_small_regular_graph_against_reference(self):
        checked = 0
        for d in (1, 2, 3):
            for n in range(2, 9):
                def visit(g, d=d):
                    nonlocal checked
                    for k in (d - 1, d, d + 1):
                        assert is_union_of_kdd(g, k) == \
                            reference_is_union_of_kdd(g, k), (g, k)
                        checked += 1

                enumerate_regular(EnumSpec(r=2, d=d, n=n), visit)
        assert checked == 3 * 23608

    def test_random_graphs_against_reference(self):
        rng = random.Random(14)
        unions = 0
        for i in range(2000):
            g = _random_kdd_candidate(i % 4, rng)
            for d in range(5):
                want = reference_is_union_of_kdd(g, d)
                assert is_union_of_kdd(g, d) == want, (g, d)
                unions += want
        assert unions > 200  # the draws reach the true side too


def reference_is_union_of_kdd(g, d):
    """The recognizer before its neighbourhood test: each component, found
    by breadth-first search, must have 2d vertices and d^2 edges, be
    d-regular and be quasi-bipartite."""
    if g.uniformity() != 2:
        return False
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    left = (1 << g.n) - 1
    while left:
        comp = frontier = left & -left
        while frontier:
            low = frontier & -frontier
            new = adj[low.bit_length() - 1] & ~comp
            comp |= new
            frontier ^= low | new
        left &= ~comp
        if comp.bit_count() != 2 * d:
            return False
        sub = g.restrict(vertices_of(comp))
        if sub.num_edges != d * d or sub.regularity() != d:
            return False
        if quasi_bipartition(sub) is None:
            return False
    return True


def _random_kdd_candidate(kind, rng):
    """Kind 0: edges of sizes 1-3; 1: a random graph; 2: a shuffled union of
    K_{d,d} blocks, perturbed or not; 3: such a union beside a cycle or an
    isolated vertex, or after a degree-preserving edge swap."""
    if kind == 0:
        n = rng.randint(0, 8)
        return Hypergraph(n, [rng.sample(range(n), min(rng.randint(1, 3), n))
                              for _ in range(rng.randint(0, n + 2) if n else 0)])
    if kind == 1:
        n = rng.randint(0, 9)
        return Hypergraph(n, [e for e in itertools.combinations(range(n), 2)
                              if rng.random() < 0.4])
    d = rng.randint(1, 4)
    blocks = rng.randint(1, 3)
    edges = [(2 * d * b + i, 2 * d * b + d + j)
             for b in range(blocks) for i in range(d) for j in range(d)]
    n = 2 * d * blocks
    action = rng.randrange(4)
    if kind == 2 and action == 1:
        edges.pop(rng.randrange(len(edges)))
    elif kind == 2 and action == 2:
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    elif kind == 3 and action == 0:
        edges += [(n + i, n + (i + 1) % (2 * d + 2)) for i in range(2 * d + 2)]
        n += 2 * d + 2
    elif kind == 3 and action == 1:
        n += 1
    elif kind == 3 and len(edges) > 1:
        # swap (a, b), (c, e) for (a, e), (c, b) when both are new edges
        (a, b), (c, e) = rng.sample(edges, 2)
        if a != c and b != e and (a, e) not in edges and (c, b) not in edges:
            edges = [x for x in edges if x not in ((a, b), (c, e))]
            edges += [(a, e), (c, b)]
    perm = list(range(n))
    rng.shuffle(perm)
    return Hypergraph(n, [(perm[u], perm[v]) for u, v in edges])


class TestCompare:
    def test_complete_3partite_t2(self):
        rep = compare_constructions(3, t=2)
        assert rep.d == 4
        assert rep.ind_hrd == 1471
        assert rep.ind_rival == 37
        assert rep.L == 12
        assert (rep.hrd_power, rep.rival_power) == (1471, 1369)
        assert rep.winner == "hrd"

    def test_k22_tie(self):
        rep = compare_constructions(2, t=2)
        assert rep.ind_hrd == rep.ind_rival == 7
        assert rep.winner == "tie"

    def test_transversal_m2(self):
        rep = compare_constructions(3, m=2)
        assert rep.ind_hrd == 43
        assert rep.ind_rival == count_brute(build_transversal_design_3(2))
        assert rep.L == 6
        assert rep.winner == "hrd"

    def test_transversal_strict_wins(self):
        for m in (2, 3, 4):
            rep = compare_constructions(3, m=m)
            assert rep.winner == "hrd"
            assert rep.hrd_power > rep.rival_power

    def test_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            compare_constructions(3)
        with pytest.raises(InvalidArgumentError):
            compare_constructions(3, t=2, m=2)
        with pytest.raises(InvalidArgumentError):
            compare_constructions(4, m=2)


class TestDistributions:
    def test_single_edge_uniform_third(self):
        g = Hypergraph(2, [(0, 1)])
        dist = joint_distribution(g)
        assert dist.total == 3
        # every independent set has weight 1 of 3, and {0, 1} has none
        assert dist.weights == {0b00: 1, 0b01: 1, 0b10: 1}

    def test_free_vertices_uniform_quarter(self):
        dist = joint_distribution(Hypergraph(2))
        assert dist.total == 4
        assert dist.weights == {0b00: 1, 0b01: 1, 0b10: 1, 0b11: 1}

    def test_h31(self):
        g, _ = build_hrd(3, 1)
        dist = joint_distribution(g)
        assert dist.total == 7
        assert 0b111 not in dist.weights
        assert sum(dist.weights.values()) == 7

    def test_marginal_single_vertex(self):
        g = Hypergraph(2, [(0, 1)])
        m = marginal(joint_distribution(g), {0})
        assert m.total == 3
        assert m.weights == {0b0: 2, 0b1: 1}

    def test_marginal_sums_to_one(self, rng):
        from conftest import random_hypergraph
        g = random_hypergraph(7, 2, rng)
        dist = joint_distribution(g)
        m = marginal(dist, {1, 3, 5})
        assert sum(m.weights.values()) == m.total

    def test_marginal_out_of_domain(self):
        dist = joint_distribution(Hypergraph(2))
        with pytest.raises(InvalidArgumentError):
            marginal(dist, {5})

    def test_entropy_is_log_count(self):
        for g in (build_hrd(3, 2)[0], cycle(5), Hypergraph(4)):
            dist = joint_distribution(g)
            assert entropy(dist) == pytest.approx(math.log2(dist.total),
                                                  rel=1e-12)

    def test_conditional_on_everything_is_zero(self):
        g, _ = build_hrd(3, 1)
        dist = joint_distribution(g)
        # H(X_0 | X) = H(X_0, X) - H(X), and X already holds X_0
        full = frozenset(range(3))
        assert (entropy(marginal(dist, {0} | full))
                - entropy(marginal(dist, full))) == pytest.approx(0.0, abs=1e-12)

    def test_chain_rule(self, rng):
        from conftest import random_hypergraph
        g = random_hypergraph(7, 2, rng)
        dist = joint_distribution(g)
        a, b = {0, 1, 2}, {3, 4, 5, 6}
        h_a_given_b = entropy(marginal(dist, a | b)) - entropy(marginal(dist, b))
        assert h_a_given_b >= -1e-12
        assert entropy(dist) == pytest.approx(
            entropy(marginal(dist, b)) + h_a_given_b, abs=1e-12)


def _dict_marginal(weights: dict[int, int], smask: int) -> dict[int, int]:
    """The dict-loop projection the array code replaced, kept as a reference."""
    out: dict[int, int] = {}
    for config, w in weights.items():
        proj = config & smask
        out[proj] = out.get(proj, 0) + w
    return out


def _dict_entropy(weights: dict[int, int], total: int) -> float:
    acc = 0.0
    for w in weights.values():
        if w > 1:
            acc += w * math.log2(w)
    return math.log2(total) - acc / total


class TestArraysMatchDictReference:
    def _check(self, dist, ref):
        # same weights in the same iteration order, and a bit-identical entropy
        assert list(dist.weights.items()) == list(ref.items())
        assert all(type(w) is int for w in dist.weights.values())
        assert type(dist.total) is int
        assert entropy(dist) == _dict_entropy(ref, dist.total)

    def test_random_hypergraphs(self):
        from conftest import random_hypergraph
        rng = random.Random(20261018)
        for _ in range(40):
            n = rng.randint(0, 12)
            g = random_hypergraph(n, rng.choice((2, 3)), rng)
            dist = joint_distribution(g)
            ref = {m: 1 for m in range(1 << n) if g.is_independent(m)}
            self._check(dist, ref)
            subsets = [1 << v for v in range(n)]
            subsets += [rng.getrandbits(n) for _ in range(6)] + [dist.domain]
            for s in subsets:
                m = marginal(dist, s)
                ref_m = _dict_marginal(ref, s)
                self._check(m, ref_m)
                t = s & rng.getrandbits(n)
                self._check(marginal(m, t), _dict_marginal(ref_m, t))
                assert marginal(m, t) == marginal(dist, t)

    def test_probability_and_support_on_small_cases(self):
        for g in (Hypergraph(2, [(0, 1)]), Hypergraph(2), build_hrd(3, 1)[0],
                  build_hrd(2, 2)[0], cycle(5)):
            dist = joint_distribution(g)
            ind = [m for m in range(1 << g.n) if g.is_independent(m)]
            # the support is the independent sets, each with weight 1 of ind(g)
            assert dist.weights == {m: 1 for m in ind}
            assert dist.total == len(ind)
            m0 = marginal(dist, {0})
            n0 = sum(1 for m in ind if m & 1)
            assert m0.weights == {0: len(ind) - n0, 1: n0}
            assert m0.total == len(ind)

    def test_equality_and_hash(self):
        g, _ = build_hrd(3, 2)
        dist = joint_distribution(g)
        assert marginal(dist, 0b11) == marginal(dist, 0b11)
        assert hash(marginal(dist, 0b11)) == hash(marginal(dist, 0b11))
        assert marginal(dist, 0b11) != marginal(dist, 0b101)
        assert dist != marginal(dist, dist.domain ^ 1)
        assert dist == marginal(dist, dist.domain)


def _admissible(g, onto):
    """Every edge meets the complement of onto in at most one vertex."""
    rest = ((1 << g.n) - 1) & ~onto
    return all((em & rest).bit_count() <= 1 for em in g.edge_masks)


def _mixed_hypergraph(n, rng):
    """Random edges of sizes 1 to 3 on n vertices; some vertices may be
    isolated."""
    edges = []
    for _ in range(rng.randint(0, n)):
        size = rng.choice((1, 2, 2, 3, 3))
        if size <= n:
            edges.append(rng.sample(range(n), size))
    return Hypergraph(n, edges)


class TestJointOnto:
    """``joint_distribution(g, onto=S)`` against the marginal of the
    exhaustive table."""

    def _check_every_subset(self, g):
        full = joint_distribution(g)
        admissible = 0
        for onto in range(1 << g.n):
            if _admissible(g, onto):
                admissible += 1
                assert joint_distribution(g, onto=onto) == marginal(full, onto), \
                    (g.edges, onto)
            else:
                with pytest.raises(InvalidArgumentError, match="complement"):
                    joint_distribution(g, onto=onto)
        return admissible

    def test_random_mixed_sizes(self):
        rng = random.Random(20261018)
        for _ in range(25):
            g = _mixed_hypergraph(rng.randint(1, 12), rng)
            assert self._check_every_subset(g) >= 1  # onto = everything

    def test_edgeless_and_isolated(self):
        # with no edges every S is admissible and every weight is 2^|C|
        assert self._check_every_subset(Hypergraph(8)) == 1 << 8
        assert self._check_every_subset(Hypergraph(0)) == 1
        self._check_every_subset(Hypergraph(7, [(0, 1, 2), (3,)]))

    def test_random_quasi_bipartite_sizes_to_12(self):
        # larger graphs: S = B plus random sets of A-vertices, and random S
        rng = random.Random(5)
        for r, d, num_a in [(3, 2, 4), (4, 2, 3), (2, 3, 6), (2, 2, 5)]:
            g = random_quasi_bipartite(r, d, num_a, rng)
            full = joint_distribution(g)
            b_mask = mask_of(quasi_bipartition(g).b_side)
            for _ in range(20):
                onto = b_mask | (rng.getrandbits(num_a) & ((1 << num_a) - 1))
                assert joint_distribution(g, onto=onto) == marginal(full, onto)
                onto = rng.getrandbits(g.n)
                if _admissible(g, onto):
                    assert joint_distribution(g, onto=onto) == marginal(full, onto)

    def test_two_complement_vertices_in_one_edge(self):
        g = Hypergraph(4, [(0, 1, 2), (2, 3)])
        with pytest.raises(InvalidArgumentError, match="complement"):
            joint_distribution(g, onto=0b0001)  # edge (2, 3) is outside
        with pytest.raises(InvalidArgumentError, match="complement"):
            joint_distribution(g, onto=0b1100)  # edge (0, 1, 2) has two out
        assert joint_distribution(g, onto=0b0110).total == count_brute(g)

    def test_onto_outside_the_vertices(self):
        with pytest.raises(InvalidArgumentError):
            joint_distribution(Hypergraph(3), onto=0b1000)

    def test_cap_holds_for_onto(self):
        with pytest.raises(CapacityError, match="joint_distribution capped"):
            joint_distribution(Hypergraph(25), onto=1)


class TestProjection:
    def test_huge_weights_stay_exact_without_expansion(self):
        # expanding each weight into that many copies would need 2^41 entries
        big = 1 << 40
        dist = SubsetDistribution(
            domain=0b111, configs=np.array([0, 1, 2, 3, 5], dtype=np.uint64),
            counts=np.array([big, 1, big, 3, big], dtype=np.int64),
            total=3 * big + 4)
        m = marginal(dist, 0b001)
        assert m.weights == {0: 2 * big, 1: big + 4}
        assert marginal(dist, 0b110).weights == {0: big + 1, 2: big + 3,
                                                  4: big}
        assert marginal(dist, 0).weights == {0: 3 * big + 4}
        assert m.total == 3 * big + 4

    def test_empty_support(self):
        empty = SubsetDistribution(domain=0b11,
                                   configs=np.array([], dtype=np.uint64),
                                   counts=np.array([], dtype=np.int64), total=0)
        assert marginal(empty, 0b01).weights == {}


class TestProofSteps:
    def test_extremal_instances_pass(self):
        for r, d in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
            g, _ = build_hrd(r, d)
            rep = verify_proof_steps(g)
            assert rep.all_passed, (r, d, [s.name for s in rep.steps if not s.passed])
            assert rep.findings == ()

    def test_extremal_saturates_integer_bounds(self):
        # perfect-matching links make steps 6 and 7 hold with equality
        g, _ = build_hrd(3, 2)
        rep = verify_proof_steps(g)
        steps = {s.name: s for s in rep.steps}
        assert steps["counting-bound"].margin == 0
        assert steps["link-bound"].margin == 0
        assert (steps["counting-bound"].lhs, steps["counting-bound"].rhs) == (43, 43)
        assert (steps["link-bound"].lhs, steps["link-bound"].rhs) == (9, 9)

    def test_random_instance_reports_tightest_values(self):
        # Each link of a d-regular quasi-bipartite graph is d disjoint
        # (r-1)-sets and B is independent, so steps 6 and 7 are equalities
        # on every such input, at their true values.  Jensen is strict away
        # from the extremal family, so its tightest margin is positive.
        g = random_quasi_bipartite(3, 2, 5, random.Random(7))
        rep = verify_proof_steps(g)
        assert rep.all_passed
        steps = {s.name: s for s in rep.steps}
        assert steps["counting-bound"].lhs == steps["counting-bound"].rhs == 43
        assert steps["link-bound"].lhs == steps["link-bound"].rhs == 9
        assert steps["jensen"].margin > 1e-6
        assert steps["jensen"].rhs == pytest.approx(math.log2(43), abs=1e-12)

    def test_k22_final_equality(self):
        g = Hypergraph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        rep = verify_proof_steps(g)
        assert rep.all_passed
        assert rep.log2_ind == pytest.approx(math.log2(7), abs=1e-12)
        assert rep.hrd_bound_bits == pytest.approx(rep.log2_ind, abs=1e-9)

    def test_disjoint_union_equality_at_n12(self):
        g, _ = build_hrd(3, 2)
        rep = verify_proof_steps(disjoint_union([g, g]))
        assert rep.all_passed
        assert rep.n == 12
        assert rep.hrd_bound_bits == pytest.approx(rep.log2_ind, abs=1e-9)

    def test_composed_margin_identity(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_quasi_bipartite(3, 2, 4, rng)
            rep = verify_proof_steps(g)
            assert rep.all_passed
            composed = rep.hrd_bound_bits - rep.log2_ind
            assert composed >= -1e-9
            expected = (rep.n / (rep.r * rep.d)) * math.log2(43) \
                - math.log2(rep.ind_g)
            assert composed == pytest.approx(expected, abs=1e-9)

    def test_not_quasi_bipartite_rejected(self):
        with pytest.raises(InvalidArgumentError, match="quasi-bipartite"):
            verify_proof_steps(cycle(5))

    def test_caps(self):
        g, _ = build_hrd(3, 2)  # n = 6; each link spans 4 vertices
        with pytest.raises(CapacityError, match="joint_distribution"):
            verify_proof_steps(g, caps=Caps(entropy=5))
        with pytest.raises(CapacityError, match="count_brute"):
            verify_proof_steps(g, caps=Caps(brute=3))
        assert verify_proof_steps(g, caps=Caps(brute=4, entropy=6)).all_passed

    def test_cap_comes_before_the_recogniser(self, monkeypatch):
        # the bipartition search can run for minutes on inputs far above the
        # cap, so an over-cap input must never reach it
        def refuse(g):
            raise AssertionError("recogniser ran on an over-cap input")

        monkeypatch.setattr(verification, "quasi_bipartition", refuse)
        with pytest.raises(CapacityError, match="capped at n <= 5, got n = 6"):
            verify_proof_steps(build_hrd(3, 2)[0], caps=Caps(entropy=5))

    def test_random_instance_at_the_entropy_cap(self):
        # n = 24, |B| = 16: the B-side weights take 2^16 configurations
        g = random_quasi_bipartite(3, 2, 8, random.Random(24))
        rep = verify_proof_steps(g)
        assert rep.n == 24
        assert rep.ind_g == count_brute(g)
        assert rep.all_passed

    def test_lambda_two_ways_agree(self):
        rng = random.Random(9)
        for _ in range(5):
            g = random_quasi_bipartite(3, 2, 4, rng)
            from hyperind import quasi_bipartition
            cert = quasi_bipartition(g)
            for a in sorted(cert.a_side):
                link = cert.link_matchings[a]
                span = sorted({v for e in link for v in e})
                import itertools
                for size in range(len(span) + 1):
                    for sub in itertools.combinations(span, size):
                        if not g.is_independent(frozenset(sub)):
                            continue
                        # ground truth: extension counting in g
                        lam_ext = 2 if g.is_independent(frozenset(sub) | {a}) else 1
                        # link-local rule: 1 iff some full link edge inside I
                        lam_link = 1 if any(set(e) <= set(sub) for e in link) else 2
                        assert lam_ext == lam_link

    def test_lambda_sum_identity(self):
        # sum over independent I of lambda(I) counts the independent sets of
        # the sub-hypergraph induced on {a} u V(L(a))
        for r, d in [(3, 2), (3, 3), (4, 2)]:
            g, layout = build_hrd(r, d)
            for a in sorted(layout.marked):
                span = sorted({v for e in link_edges(g, a) for v in e})
                import itertools
                lam_sum = 0
                for size in range(len(span) + 1):
                    for sub in itertools.combinations(span, size):
                        if g.is_independent(frozenset(sub)):
                            lam_sum += 2 if g.is_independent(frozenset(sub) | {a}) else 1
                induced = g.restrict([a] + span)
                assert lam_sum == count_brute(induced)


class TestCapsReachCounting:
    def test_check_conjecture(self):
        assert check_conjecture(cycle(5), caps=Caps(brute=5)).holds
        with pytest.raises(CapacityError):
            check_conjecture(cycle(5), caps=Caps(brute=4))

    def test_compare_constructions(self):
        # the rival K_{2,2,2} has 6 vertices
        assert compare_constructions(3, t=2, caps=Caps(brute=6)).winner == "hrd"
        with pytest.raises(CapacityError):
            compare_constructions(3, t=2, caps=Caps(brute=5))


def reference_entropy(dist):
    """The float-loop entropy the exact power-of-two sum replaced, kept as a
    reference: one float addition per weight, in configuration order."""
    acc = 0.0
    for w in dist.counts[dist.counts > 1].tolist():
        acc += w * math.log2(w)
    return math.log2(dist.total) - acc / dist.total


def reference_add_a_vertex(dist_b, a, link):
    """The X_{a} u X_B table the span-derived marginals replaced, kept as a
    reference: a blocked J keeps its weight, a free J splits it evenly
    between J and J + a."""
    abit = np.uint64(1 << a)
    free = np.ones(len(dist_b.configs), dtype=bool)
    for e in link:
        em = np.uint64(mask_of(e))
        free &= (dist_b.configs & em) != em
    configs = np.concatenate((dist_b.configs, dist_b.configs[free] | abit))
    counts = np.concatenate((np.where(free, dist_b.counts >> 1, dist_b.counts),
                             dist_b.counts[free] >> 1))
    order = np.argsort(configs, kind="stable")
    return SubsetDistribution(domain=dist_b.domain | (1 << a),
                              configs=configs[order], counts=counts[order],
                              total=dist_b.total)


def _distribution(counts):
    counts = np.array(counts, dtype=np.int64)
    return SubsetDistribution(domain=(1 << 12) - 1,
                              configs=np.arange(len(counts), dtype=np.uint64),
                              counts=counts, total=int(sum(counts.tolist())))


def _same_float(x, y):
    return float.hex(x) == float.hex(y)


class TestExactEntropySum:
    """``entropy`` equals the float loop bit for bit, on both sides of the
    2^53 guard and with weights that are not powers of two."""

    def test_power_sum(self):
        assert _power_sum(np.array([1, 2, 4, 4, 8], dtype=np.int64)) \
            == 2 + 2 * 8 + 3 * 8
        assert _power_sum(np.array([], dtype=np.int64)) == 0
        assert _power_sum(np.array([1, 1], dtype=np.int64)) == 0
        assert _power_sum(np.array([2, 6], dtype=np.int64)) is None
        assert _power_sum(np.array([1 << 62], dtype=np.int64)) == 62 << 62

    def test_huge_power_of_two_weights(self):
        for k in (40, 52, 53, 58, 62):
            big = 1 << k
            for counts in ([big, 1, big, 2, big], [big] * 5, [big, big >> 3],
                           [big, 1], [1, 2, 4, big]):
                dist = _distribution(counts)
                assert _same_float(entropy(dist), reference_entropy(dist)), \
                    (k, counts)
        # 3 * 58 * 2^58 is past 2^53 (and past int64): the loop must run
        dist = _distribution([1 << 58, 1 << 58, 1 << 58])
        assert _power_sum(dist.counts) >= 1 << 53
        assert entropy(dist) == reference_entropy(dist) \
            == pytest.approx(math.log2(3))

    def test_mixed_weights(self):
        big = 1 << 40
        for counts in ([big, 1, big, 3, big], [big + 1, big], [3, 5, 6],
                       [1 << 58, (1 << 58) + 1], [7]):
            dist = _distribution(counts)
            assert _power_sum(dist.counts) is None
            assert _same_float(entropy(dist), reference_entropy(dist)), counts

    def test_random_weights_around_the_guard(self):
        rng = random.Random(20261018)
        for _ in range(3000):
            top = rng.choice((3, 10, 30, 45, 48, 50, 52, 62))
            counts = [1 << rng.randint(0, top)
                      for _ in range(rng.randint(1, 40))]
            if rng.random() < 0.2:
                counts[rng.randrange(len(counts))] += rng.randint(1, 5)
            dist = _distribution(counts)
            assert _same_float(entropy(dist), reference_entropy(dist)), counts

    def test_empty_and_zero_weights(self):
        dist = SubsetDistribution(domain=0b11,
                                  configs=np.array([0, 1, 2], dtype=np.uint64),
                                  counts=np.array([0, 4, 1], dtype=np.int64),
                                  total=5)
        assert _same_float(entropy(dist), reference_entropy(dist))
        empty = SubsetDistribution(domain=0b11,
                                   configs=np.array([], dtype=np.uint64),
                                   counts=np.array([], dtype=np.int64), total=0)
        for ent in (entropy, reference_entropy):
            with pytest.raises(ValueError):
                ent(empty)

    def test_power_of_two_weights_skip_the_loop(self, monkeypatch):
        import hyperind.verification as verification

        calls = []

        def counting_log2(x):
            calls.append(x)
            return math.log2(x)

        monkeypatch.setattr(verification, "log2", counting_log2)
        g = random_quasi_bipartite(3, 2, 6, random.Random(5))
        for counts, loop_terms in [
                (joint_distribution(g, onto=mask_of(
                    quasi_bipartition(g).b_side)).counts.tolist(), 0),
                ([1, 2, 4, 4, 8], 0),
                ([1, 3, 4], 2),              # 3 is not a power of two
                ([1 << 58] * 3, 3)]:         # the sum is past 2^53
            calls.clear()
            entropy(_distribution(counts))
            assert len(calls) == loop_terms + 1, counts  # + log2(total)

    def test_b_side_and_exhaustive_tables(self):
        rng = random.Random(11)
        for r, d, num_a in [(3, 2, 8), (2, 3, 12), (4, 2, 6), (3, 3, 6)]:
            g = random_quasi_bipartite(r, d, num_a, rng)
            dist_b = joint_distribution(
                g, onto=mask_of(quasi_bipartition(g).b_side))
            assert _same_float(entropy(dist_b), reference_entropy(dist_b))
        dist = joint_distribution(build_hrd(3, 2)[0])
        assert _same_float(entropy(dist), reference_entropy(dist))


class TestSpanDerivedMarginals:
    """Each X_{a} u X_span marginal and H(X_a, X_B), read from the span
    marginal alone, equal the marginal and the float-loop entropy of the
    full X_{a} u X_B table, with ==."""

    def _check(self, g):
        cert = quasi_bipartition(g)
        dist_b = joint_distribution(g, onto=mask_of(cert.b_side))
        b_sum = _power_sum(dist_b.counts)
        for a in sorted(cert.a_side):
            link = cert.link_matchings[a]
            smask = mask_of(v for e in link for v in e)
            span, a_span, free, h_a_b = _a_vertex_marginals(
                dist_b, b_sum, a, smask, link)
            table = reference_add_a_vertex(dist_b, a, link)
            assert span == marginal(dist_b, smask)
            assert a_span == marginal(table, (1 << a) | smask), (g.edges, a)
            assert _same_float(h_a_b, reference_entropy(table)), (g.edges, a)
            assert free.tolist() == [g.is_independent(s | 1 << a)
                                     for s in span.configs.tolist()]

    def test_hrd(self):
        for r, d in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2)]:
            self._check(build_hrd(r, d)[0])

    def test_random_quasi_bipartite_to_the_cap(self):
        rng = random.Random(20261018)
        for r, d, sizes in [(3, 2, (2, 4, 6, 8)), (2, 3, (3, 6, 9, 12)),
                            (4, 2, (2, 4, 6)), (2, 2, (2, 7, 12)),
                            (3, 3, (3, 5, 8)), (2, 4, (4, 8, 12))]:
            for num_a in sizes:
                g = random_quasi_bipartite(r, d, num_a, rng)
                assert g.n <= 24
                self._check(g)


def _binary_entropy(w1: int, w0: int) -> float:
    total = w1 + w0
    acc = 0.0
    for w in (w1, w0):
        if 0 < w < total:
            acc -= (w / total) * log2(w / total)
    return acc


def reference_verify_proof_steps(g, eps=PROOF_EPS, caps=Caps()):
    """The exhaustive proof checker the B-side one replaced, kept as a
    reference: every marginal is projected from the 2^n table of independent
    sets, each with weight 1."""
    r, d = infer_uniform_regular(g)
    cert = quasi_bipartition(g)
    dist = joint_distribution(g, caps)
    a_side = sorted(cert.a_side)
    b_mask = mask_of(cert.b_side)
    a_mask = mask_of(cert.a_side)
    h_x = reference_entropy(dist)
    span_masks = {a: mask_of(v for e in cert.link_matchings[a] for v in e)
                  for a in a_side}
    entropies = {}

    def h(mask):
        if mask not in entropies:
            entropies[mask] = reference_entropy(marginal(dist, mask))
        return entropies[mask]

    steps, findings = [], []
    cover = {b: 0 for b in cert.b_side}
    for a in a_side:
        for b in vertices_of(span_masks[a]):
            cover[b] += 1
    counts = sorted(cover.values()) or [d]
    steps.append(ProofStep("cover-validity", float(counts[0]), float(counts[-1]),
                           counts[0] == d and counts[-1] == d))
    h_b = h(b_mask)
    shearer_rhs = sum(h(span_masks[a]) for a in a_side) / d
    steps.append(ProofStep("shearer", h_b, shearer_rhs, h_b <= shearer_rhs + eps))
    h_a_given_b = h(a_mask | b_mask) - h_b
    sub_rhs = sum(h((1 << a) | b_mask) - h_b for a in a_side)
    steps.append(ProofStep("subadditivity", h_a_given_b, sub_rhs,
                           h_a_given_b <= sub_rhs + eps))
    worst_eq = 0.0
    for a in a_side:
        diff = abs((h((1 << a) | b_mask) - h_b)
                   - (h((1 << a) | span_masks[a]) - h(span_masks[a])))
        worst_eq = max(worst_eq, diff)
        if diff > eps:
            findings.append(
                f"conditioning reduction differs by {diff:.3e} bits at vertex {a}")
    steps.append(ProofStep("conditioning-reduction", worst_eq, 0.0, True))

    lambda_pass = True
    worst_lambda = worst_jensen = worst_count = worst_link = None
    for a in a_side:
        smask = span_masks[a]
        abit = 1 << a
        marg = marginal(dist, smask)
        has_a = (dist.configs & np.uint64(abit)) != 0
        with_a = marginal(SubsetDistribution(dist.domain, dist.configs[has_a],
                                             dist.counts[has_a], dist.total),
                          smask).weights
        lambdas = {}
        for config, w_total in marg.weights.items():
            lam = 2 if g.is_independent(config | abit) else 1
            lambdas[config] = lam
            w1 = with_a.get(config, 0)
            h_cond = _binary_entropy(w1, w_total - w1)
            worst_lambda = _tighter(worst_lambda, h_cond, math.log2(lam))
            if h_cond - math.log2(lam) > eps or lam not in (1, 2):
                lambda_pass = False
        lam_sum = sum(lam ** d for lam in lambdas.values())
        jensen_lhs = sum(
            (w / marg.total) * (d * math.log2(lambdas[c]) - math.log2(w / marg.total))
            for c, w in marg.weights.items())
        worst_jensen = _tighter(worst_jensen, jensen_lhs, math.log2(lam_sum))
        link_graph = Hypergraph(g.n, cert.link_matchings[a]).restrict(
            vertices_of(smask))
        ind_link = count_brute(link_graph, caps)
        worst_count = _tighter(worst_count, lam_sum,
                               2 ** smask.bit_count() + (2 ** d - 1) * ind_link)
        worst_link = _tighter(worst_link, ind_link, (2 ** (r - 1) - 1) ** d)

    steps.append(ProofStep("lambda-bound", worst_lambda[0], worst_lambda[1],
                           lambda_pass))
    steps.append(ProofStep("jensen", worst_jensen[0], worst_jensen[1],
                           worst_jensen[0] <= worst_jensen[1] + eps))
    steps.append(ProofStep("counting-bound", float(worst_count[0]),
                           float(worst_count[1]), worst_count[0] <= worst_count[1]))
    steps.append(ProofStep("link-bound", float(worst_link[0]),
                           float(worst_link[1]), worst_link[0] <= worst_link[1]))
    hrd_bound = (g.n / (r * d)) * math.log2(ind_hrd_formula(r, d))
    steps.append(ProofStep("final-bound", h_x, hrd_bound, h_x <= hrd_bound + eps))
    return ProofStepReport(n=g.n, r=r, d=d, ind_g=dist.total, log2_ind=h_x,
                           hrd_bound_bits=hrd_bound, steps=tuple(steps),
                           findings=tuple(findings))


class TestBSideMatchesExhaustiveReference:
    """Reports from the B-side weights equal the exhaustive ones with ==,
    every float included."""

    def test_hrd(self):
        for r, d in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2)]:
            g, _ = build_hrd(r, d)
            assert verify_proof_steps(g) == reference_verify_proof_steps(g), (r, d)

    def test_random_proof_shapes(self):
        # the (r, d) shapes of the benchmark's proof workload, at n <= 18
        rng = random.Random(20261018)
        for r, d, sizes in [(3, 2, (2, 3, 4, 5, 6)), (2, 3, (3, 5, 7, 9)),
                            (4, 2, (2, 3, 4))]:
            for num_a in sizes:
                for _ in range(2):
                    g = random_quasi_bipartite(r, d, num_a, rng)
                    assert g.n <= 18
                    rep = verify_proof_steps(g)
                    assert rep == reference_verify_proof_steps(g), g.edges
                    assert rep.all_passed

import gc
import itertools
import pickle
import random

import pytest

from hyperind import Caps, CapacityError, EnumSpec, Hypergraph, \
    InvalidArgumentError, build_hrd, build_matching, canonical_form, \
    check_conjecture, enumerate_regular, read_hypergraph, write_hypergraph
from hyperind import counting, enumeration
from hyperind.counting import brute_cap_error, count, count_branch, count_brute
from hyperind.enumeration import first_edge_choices

from conftest import SWEEP_RANGES, assert_recorded_pair_is_invisible, \
    refuse_graphs


def collect(spec):
    out = []
    enumerate_regular(spec, out.append)
    return out


def reference_emissions(spec):
    """Candidate-by-candidate DFS with suffix pruning, the enumerator this
    package used before branching on the lowest unfilled vertex.  It tries
    every lex-ordered r-subset with an include branch, then an exclude
    branch, so its emission order is the order to keep."""
    n, d = spec.n, spec.d
    if not spec.feasible:
        return []
    candidates = list(itertools.combinations(range(n), spec.r))
    m = spec.num_edges
    suffix = [[0] * n for _ in range(len(candidates) + 1)]
    for i in range(len(candidates) - 1, -1, -1):
        suffix[i][:] = suffix[i + 1]
        for v in candidates[i]:
            suffix[i][v] += 1
    residual = [d] * n
    chosen = []
    start = 0
    for e in spec.prefix:
        for v in e:
            residual[v] -= 1
        chosen.append(tuple(e))
        start = candidates.index(tuple(e)) + 1
    out, seen = [], set()

    def rec(i):
        if len(chosen) == m:
            if all(res == 0 for res in residual):
                g = Hypergraph(n, chosen)
                if spec.up_to_iso:
                    g = canonical_form(g)
                    if g in seen:
                        return
                    seen.add(g)
                out.append(g)
            return
        if i >= len(candidates) or any(
                residual[v] > suffix[i][v] for v in range(n)):
            return
        e = candidates[i]
        if all(residual[v] >= 1 for v in e):
            for v in e:
                residual[v] -= 1
            chosen.append(e)
            rec(i + 1)
            chosen.pop()
            for v in e:
                residual[v] += 1
        rec(i + 1)

    rec(start)
    return out


class TestLabeled:
    def test_perfect_matchings_on_4(self):
        # (4-1)!! = 3 perfect matchings, confirmed by explicit generation
        got = collect(EnumSpec(r=2, d=1, n=4))
        assert len(got) == 3
        expected = {Hypergraph(4, [(0, 1), (2, 3)]),
                    Hypergraph(4, [(0, 2), (1, 3)]),
                    Hypergraph(4, [(0, 3), (1, 2)])}
        assert set(got) == expected

    def test_two_regular_on_5(self):
        # 5!/(5*2) = 12 labeled 5-cycles
        got = collect(EnumSpec(r=2, d=2, n=5))
        assert len(got) == 12

    def test_single_triple(self):
        got = collect(EnumSpec(r=3, d=1, n=3))
        assert got == [Hypergraph(3, [(0, 1, 2)])]

    def test_infeasible_divisibility(self):
        assert enumerate_regular(EnumSpec(r=3, d=1, n=4)) == 0
        assert enumerate_regular(EnumSpec(r=3, d=2, n=4)) == 0

    def test_each_emission_is_regular_and_uniform(self):
        for spec in [EnumSpec(r=2, d=2, n=6), EnumSpec(r=3, d=2, n=6)]:
            for g in collect(spec):
                assert g.uniformity() == spec.r
                assert g.regularity() == spec.d

    def test_no_duplicates_and_deterministic(self):
        spec = EnumSpec(r=3, d=2, n=6)
        a = collect(spec)
        b = collect(spec)
        assert a == b
        assert len(set(a)) == len(a)

    def test_emissions_equal_normalized_construction(self):
        # emitted graphs skip edge normalisation; they must still be the
        # values the public constructor builds from the same edges
        specs = [EnumSpec(r=2, d=2, n=7), EnumSpec(r=3, d=2, n=6),
                 EnumSpec(r=2, d=3, n=6, prefix=((0, 3),)),
                 EnumSpec(r=2, d=2, n=6, up_to_iso=True)]
        for spec in specs:
            for g in collect(spec):
                built = Hypergraph(g.n, reversed(g.edges))
                assert g == built and hash(g) == hash(built)
                assert g.edges == built.edges
                assert g.edge_masks == built.edge_masks


class TestEmissionOrder:
    """The emitted graphs, in order, match the candidate-by-candidate
    reference DFS."""

    # the labeled conjecture sweep's ranges up to n = 9, plus two denser specs
    SPECS = ([(2, 1, n) for n in range(2, 10)] + [(2, 2, n) for n in range(2, 10)]
             + [(2, 3, n) for n in range(2, 9)] + [(3, 1, n) for n in range(3, 10)]
             + [(3, 2, n) for n in range(3, 7)] + [(4, 2, 8), (2, 4, 8)])

    def test_labeled_specs(self):
        for r, d, n in self.SPECS:
            spec = EnumSpec(r=r, d=d, n=n)
            assert collect(spec) == reference_emissions(spec), (r, d, n)

    def test_every_one_edge_prefix(self):
        for e in itertools.combinations(range(6), 3):
            spec = EnumSpec(r=3, d=2, n=6, prefix=(e,))
            assert collect(spec) == reference_emissions(spec), e

    def test_up_to_iso(self):
        spec = EnumSpec(r=2, d=2, n=7, up_to_iso=True)
        got = collect(spec)
        assert len(got) == 2  # C7, and a triangle beside a 4-cycle
        assert got == reference_emissions(spec)

    def test_up_to_iso_specs(self):
        # the reference canonicalises every labeled graph, first edge or not;
        # on r=2 d=5 n=6 and r=2 d=6 n=8 the depth is capped at 3n/2 edges
        specs = [(r, d, n) for r in (2, 3, 4) for d in (1, 2, 3)
                 for n in range(8) if (n * d) % r == 0 and not 0 < n < r] \
            + [(2, 2, 8), (2, 5, 6), (2, 6, 8)]
        for r, d, n in specs:
            spec = EnumSpec(r=r, d=d, n=n, up_to_iso=True)
            assert collect(spec) == reference_emissions(spec), (r, d, n)


def second_edges(r, n):
    """S_t = (0..t-1, r..2r-t-1) for t = r-1 down to 0, in lex order, that
    fit on n vertices."""
    out = [tuple(range(t)) + tuple(range(r, 2 * r - t))
           for t in range(r - 1, -1, -1) if 2 * r - t <= n]
    assert out == sorted(out)
    return out


def brute_minimal(prefix, n):
    """Whether no relabeling among all n! sorts prefix's edges below it."""
    prefix = [tuple(e) for e in prefix]
    for perm in itertools.permutations(range(n)):
        image = sorted(tuple(sorted(map(perm.__getitem__, e))) for e in prefix)
        if image < prefix:
            return False
    return True


def lex_least(prefix, n):
    """The lex-least relabeling of prefix, over all n! permutations."""
    return min(sorted(tuple(sorted(map(perm.__getitem__, e))) for e in prefix)
               for perm in itertools.permutations(range(n)))


def minimal_depth(m, n):
    """K, the number of first edges the minimality test is run on."""
    return max(min(2, m), min(-(-2 * m // 3), -(-3 * n // 2)))


def _fits(prefix, n, d):
    degree = [0] * n
    for e in prefix:
        for v in e:
            degree[v] += 1
    return max(degree, default=0) <= d


def _assert_carried_counts(graphs):
    for g in graphs:
        assert g._ind == count_brute(Hypergraph(g.n, g.edges)), g


class TestForcedLastEdge:
    """The last edge is looked up, not scanned for, inside the candidate loop
    of the last-but-one level, and the last DEPTH edges come from one memo
    table; these prefixes start the search at every memo level and at the
    forced last edge."""

    SPECS = [(2, 1, 6), (2, 2, 5), (2, 2, 6), (3, 2, 6), (2, 3, 6), (4, 2, 6)]

    def _check_every_prefix(self, left):
        emitted = 0
        for r, d, n in self.SPECS:
            m = EnumSpec(r=r, d=d, n=n).num_edges
            candidates = list(itertools.combinations(range(n), r))
            size = max(m - left, 0)
            for prefix in itertools.combinations(candidates, size):
                if not _fits(prefix, n, d):
                    continue
                spec = EnumSpec(r=r, d=d, n=n, prefix=prefix)
                got = collect(spec)
                assert got == reference_emissions(spec), prefix
                assert left > 1 or len(got) <= 1
                # the prefix enters the replay at this memo level
                _assert_carried_counts(got)
                emitted += len(got)
        # each labeled graph completes exactly one prefix of its first
        # m - left edges
        assert emitted == sum(enumerate_regular(EnumSpec(r=r, d=d, n=n))
                              for r, d, n in self.SPECS), left

    def test_every_prefix_of_m_minus_1_edges(self):
        self._check_every_prefix(1)

    def test_every_prefix_of_m_minus_2_edges(self):
        self._check_every_prefix(2)

    def test_every_prefix_of_m_minus_3_edges(self):
        self._check_every_prefix(3)

    def test_every_prefix_of_m_minus_k_edges(self):
        # the memo levels above the third, up to DEPTH
        for left in range(4, enumeration.DEPTH + 1):
            self._check_every_prefix(left)

    def test_degree_above_a_byte(self):
        # the complete 256-uniform hypergraph on 257 vertices is 256-regular,
        # entered at every memo level with residuals above 255
        n = 257
        edges = list(itertools.combinations(range(n), n - 1))
        for left in range(2, enumeration.DEPTH + 1):
            spec = EnumSpec(r=n - 1, d=n - 1, n=n, prefix=edges[:-left])
            assert collect(spec) == reference_emissions(spec) \
                == [Hypergraph(n, edges)]

    def test_prefix_of_m_edges(self):
        for r, d, n in self.SPECS:
            for g in collect(EnumSpec(r=r, d=d, n=n)):
                spec = EnumSpec(r=r, d=d, n=n, prefix=g.edges)
                got = collect(spec)
                assert got == reference_emissions(spec) == [g]
                _assert_carried_counts(got)

    def test_single_edge_specs(self):
        for r in range(1, 7):
            spec = EnumSpec(r=r, d=1, n=r)
            assert spec.num_edges == 1
            assert collect(spec) == reference_emissions(spec) \
                == [Hypergraph(r, [range(r)])]
            spec = EnumSpec(r=r, d=1, n=r, up_to_iso=True)
            assert collect(spec) == reference_emissions(spec)

    def test_complement_not_a_later_edge(self):
        for n, d, prefix in [
                # vertices 2 and 3 still need an edge, but (2, 3) < (3, 4)
                (5, 2, ((0, 1), (0, 2), (1, 4), (3, 4))),
                # vertex 3 needs two more edges and there is one left to add
                (4, 2, ((0, 1), (0, 2), (1, 2))),
                # the open vertices 0 and 3 close a 4-cycle behind its last edge
                (4, 2, ((0, 1), (1, 2), (2, 3)))]:
            spec = EnumSpec(r=2, d=d, n=n, prefix=prefix)
            assert len(prefix) == spec.num_edges - 1
            assert collect(spec) == reference_emissions(spec) == []
            assert enumerate_regular(spec) == 0


class TestMemoLifetime:
    """The memo table lives for one call and is freed when it returns."""

    def test_no_reference_cycle_left(self):
        # the first spec lies inside the memo; the second also runs the
        # search above it; the third canonicalises each graph it searches
        small, large = EnumSpec(r=3, d=2, n=6), EnumSpec(r=2, d=2, n=9)
        iso = EnumSpec(r=3, d=3, n=7, up_to_iso=True)
        assert small.num_edges <= enumeration.DEPTH < large.num_edges
        gc.disable()
        try:
            gc.collect()
            for spec, total in [(small, 75), (large, 30016), (iso, 10)]:
                assert enumerate_regular(spec) == total
                assert gc.collect() == 0
                assert len(collect(spec)) == total
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_visit_raising_mid_run(self):
        spec = EnumSpec(r=2, d=2, n=7)
        seen = []

        def visit(g):
            if len(seen) == 100:
                raise RuntimeError("stop")
            seen.append(g)

        with pytest.raises(RuntimeError):
            enumerate_regular(spec, visit)
        assert seen == reference_emissions(spec)[:100]
        for after in (spec, EnumSpec(r=3, d=2, n=6)):
            assert collect(after) == reference_emissions(after)


class TestCarriedCount:
    """A labeled graph on at most 12 vertices is emitted with ind(G), ORed
    from count_brute's edge patterns along the search, and count_brute
    returns it after its cap check."""

    # beyond the sweep ranges: two-edge tails of 4-vertex edges, of 3-vertex
    # edges at degree 3, and of 2-vertex edges at degree 4
    WIDER = [(4, 2, 8), (3, 3, 7), (2, 4, 8)]

    def test_equals_count_brute_on_the_sweep_ranges(self):
        checked = 0

        def visit(g):
            nonlocal checked
            # a graph built from the same edges carries no count
            fresh = Hypergraph(g.n, g.edges)
            assert fresh._ind is None
            assert g._ind == count_brute(fresh), g
            checked += 1

        for r, d, n_max in SWEEP_RANGES + self.WIDER:
            for n in range(r, n_max + 1):
                enumerate_regular(EnumSpec(r=r, d=d, n=n), visit)
        assert checked == 70335 + 33254

    def test_carried_only_by_labeled_graphs_up_to_12_vertices(self):
        labeled = collect(EnumSpec(r=2, d=2, n=6))
        assert all(g._ind is not None for g in labeled)
        # 7!! = 105 perfect matchings of 14 vertices extend this prefix
        above = collect(EnumSpec(r=2, d=1, n=14,
                                 prefix=((0, 1), (2, 3), (4, 5))))
        assert len(above) == 105
        others = (collect(EnumSpec(r=2, d=2, n=6, up_to_iso=True)) + above
                  + [build_hrd(3, 2)[0], build_matching(3, 2),
                     Hypergraph(6, labeled[0].edges),
                     read_hypergraph(write_hypergraph(labeled[0]))])
        for g in others:
            assert g._ind is None, g
        assert count_brute(above[0]) == 3 ** 7

    def test_branch_still_counts(self, monkeypatch):
        calls = []

        def spy(g):
            calls.append(g)
            return count_branch(g)

        monkeypatch.setattr(counting, "count_branch", spy)
        g = collect(EnumSpec(r=3, d=2, n=6))[0]
        assert g._ind is not None
        assert count(g, "branch") == g._ind
        assert calls == [g]

    def test_cap_comes_before_the_carried_count(self):
        g = collect(EnumSpec(r=2, d=1, n=8))[0]
        assert g._ind is not None
        caps = Caps(brute=5, canon=12, entropy=24)
        with pytest.raises(CapacityError) as err:
            check_conjecture(g, caps)
        assert str(err.value) == str(brute_cap_error(8, caps))

    def test_equality_hash_pickle_and_canonical_form(self):
        for g in collect(EnumSpec(r=3, d=2, n=6)):
            fresh = Hypergraph(g.n, g.edges)
            assert g == fresh and hash(g) == hash(fresh)
            assert pickle.loads(pickle.dumps(g)) == g
            assert canonical_form(g) == canonical_form(fresh)

    def test_no_visit_builds_no_graph(self, monkeypatch):
        refuse_graphs(monkeypatch)
        for spec, total in [(EnumSpec(r=3, d=2, n=6), 75),
                            (EnumSpec(r=2, d=2, n=9), 30016),
                            (EnumSpec(r=2, d=1, n=14, prefix=((0, 1),)), 10395)]:
            assert enumerate_regular(spec) == total


class TestRecordedPair:
    """A labeled graph records its (r, d) only where infer_uniform_regular
    would accept it: r >= 2, d >= 1 and at least one edge."""

    def test_r1_rejected_by_the_check(self):
        with pytest.raises(InvalidArgumentError,
                           match=r"^uniformity r must be >= 2$"):
            enumerate_regular(EnumSpec(r=1, d=1, n=3), check_conjecture)
        # six edges reach the replay's level of three edges left, which an
        # r = 1 run passes through level by level; the count still rides along
        g = collect(EnumSpec(r=1, d=1, n=6))[0]
        assert "_uniform_regular" not in vars(g) and g._ind == 1
        with pytest.raises(InvalidArgumentError,
                           match=r"^uniformity r must be >= 2$"):
            check_conjecture(g)

    def test_no_edges_rejected_by_the_check(self):
        for spec in (EnumSpec(r=2, d=2, n=0), EnumSpec(r=2, d=0, n=4)):
            with pytest.raises(InvalidArgumentError, match=(
                    r"^hypergraph has no edges \(degree d = 0 is rejected\)$")):
                enumerate_regular(spec, check_conjecture)

    def test_graphs_built_in_the_counted_loop(self, monkeypatch):
        # with _from_normalized refused, every graph a visit sees was
        # written in the replay's two-level loop
        def refuse(*args, **kwargs):
            raise AssertionError("built by _from_normalized")

        monkeypatch.setattr(Hypergraph, "_from_normalized", refuse)
        for r, d, n, total in [(2, 1, 6, 15), (2, 2, 7, 465), (3, 2, 6, 75),
                               (4, 2, 8, 1855)]:
            seen = []
            assert enumerate_regular(EnumSpec(r=r, d=d, n=n), seen.append) == total
            assert len(seen) == total
            for g in seen:
                assert_recorded_pair_is_invisible(g, (r, d))
                assert g._ind == count_brute(Hypergraph(g.n, g.edges)), g


class TestUpToIso:
    def test_two_regular_on_5_single_class(self):
        got = collect(EnumSpec(r=2, d=2, n=5, up_to_iso=True))
        assert len(got) == 1  # the 5-cycle

    def test_one_regular_3graphs_on_6(self):
        got = collect(EnumSpec(r=3, d=1, n=6, up_to_iso=True))
        assert len(got) == 1  # two disjoint triples

    def test_classes_are_canonical_and_distinct(self):
        got = collect(EnumSpec(r=2, d=2, n=6, up_to_iso=True))
        assert len(got) == 2  # C6 and two triangles
        for g in got:
            assert canonical_form(g) == g

    def test_cap(self):
        with pytest.raises(CapacityError):
            EnumSpec(r=2, d=1, n=14, up_to_iso=True)
        with pytest.raises(CapacityError):
            EnumSpec(r=2, d=1, n=6, up_to_iso=True, caps=Caps(canon=5))

    def test_caps_reach_canonical_form(self, monkeypatch):
        seen = []

        def spy(g, caps):
            seen.append(caps)
            return canonical_form(g, caps)

        monkeypatch.setattr(enumeration, "canonical_form", spy)
        caps = Caps(brute=7, canon=6, entropy=5)
        assert enumerate_regular(EnumSpec(r=2, d=1, n=6, up_to_iso=True,
                                          caps=caps)) == 1
        # of the 3 perfect matchings that contain (0, 1) only the one whose
        # second edge is (2, 3) is searched; (0, 2) would overfill vertex 0
        assert seen == [caps]

    def test_canonical_forms_only_under_the_first_edge(self, monkeypatch):
        calls = []

        def counted(g, caps):
            calls.append(g.edges)
            return canonical_form(g, caps)

        monkeypatch.setattr(enumeration, "canonical_form", counted)
        # 465 and 330 labeled graphs; 155 and 99 of them start with E0, 31
        # and 29 of those continue with some S_t, and 3 and 5 of those
        # start with a minimal prefix of K = 5 and 4 edges
        for r, d, n, want in [(2, 2, 7, 3), (3, 3, 6, 5)]:
            calls.clear()
            spec = EnumSpec(r=r, d=d, n=n, up_to_iso=True)
            enumerate_regular(spec)
            assert len(calls) == want, (r, d, n)
            assert {edges[0] for edges in calls} == {tuple(range(r))}
            assert {edges[1] for edges in calls} <= set(second_edges(r, n))
            depth = minimal_depth(spec.num_edges, n)
            for edges in calls:
                assert brute_minimal(edges[:depth], n), edges

    def test_one_labeled_walk_per_run(self, monkeypatch):
        # every minimal prefix is tested inside one walk with one memo
        calls = []

        def counted(*args):
            calls.append(args)
            return labeled(*args)

        labeled = enumeration._labeled
        monkeypatch.setattr(enumeration, "_labeled", counted)
        for r, d, n, classes in [(3, 3, 8, 33), (2, 2, 7, 2)]:
            calls.clear()
            assert enumerate_regular(EnumSpec(r=r, d=d, n=n, up_to_iso=True)) \
                == classes, (r, d, n)
            assert len(calls) == 1, (r, d, n)

    def test_class_counts_match_oeis(self):
        # A008483 (partitions into parts >= 3), A005638 (cubic graphs) and
        # A033483 (4-regular graphs); no class is emitted twice
        rows = [(2, 2, range(3, 13), [1, 1, 1, 2, 2, 3, 4, 5, 6, 9]),
                (2, 3, range(4, 13, 2), [1, 2, 6, 21, 94]),
                (2, 4, range(5, 11), [1, 1, 2, 6, 16, 60])]
        for r, d, ns, counts in rows:
            for n, want in zip(ns, counts):
                got = collect(EnumSpec(r=r, d=d, n=n, up_to_iso=True))
                assert len(got) == len(set(got)) == want, (r, d, n)

    def test_complete_hypergraph_far_above_the_memo(self):
        # every vertex misses exactly one edge, so only one branch completes;
        # without the feasibility prune the search does not finish
        n = 65
        edges = list(itertools.combinations(range(n), n - 1))
        assert collect(EnumSpec(r=n - 1, d=n - 1, n=n)) == [Hypergraph(n, edges)]


class TestMinimal:
    """enumeration._minimal against a brute-force test over all n!
    relabelings."""

    def test_every_prefix_the_dispatcher_tests(self, monkeypatch):
        tested = set()

        def spy(prefix, n):
            tested.add((tuple(prefix), n))
            return minimal(prefix, n)

        minimal = enumeration._minimal
        monkeypatch.setattr(enumeration, "_minimal", spy)
        for r, d, n in itertools.product((2, 3, 4), (1, 2, 3), range(8)):
            if (n * d) % r == 0 and not 0 < n < r:
                enumerate_regular(EnumSpec(r=r, d=d, n=n, up_to_iso=True))
        assert len(tested) == 367
        for prefix, n in tested:
            assert minimal(list(prefix), n) == brute_minimal(prefix, n), prefix

    def test_random_prefixes(self):
        rng = random.Random(27)
        for _ in range(400):
            n = rng.randint(1, 7)
            r = rng.randint(1, min(4, n))
            candidates = list(itertools.combinations(range(n), r))
            prefix = sorted(rng.sample(candidates, rng.randint(0, min(6, len(candidates)))))
            assert enumeration._minimal(prefix, n) == brute_minimal(prefix, n), prefix
            least = lex_least(prefix, n)
            assert enumeration._minimal(least, n), least

    def test_first_and_second_edges(self):
        # the depth-1 and depth-2 cases are the E0 and (E0, S_t) rules
        for r in (1, 2, 3, 4):
            for n in range(r, 9):
                e0 = tuple(range(r))
                candidates = list(itertools.combinations(range(n), r))
                assert [e for e in candidates
                        if enumeration._minimal([e], n)] == [e0], (r, n)
                pairs = [[a, b] for a, b in itertools.combinations(candidates, 2)
                         if enumeration._minimal([a, b], n)]
                assert pairs == [[e0, s] for s in second_edges(r, n)], (r, n)


class TestAutomorphismPartition:
    def test_labeled_count_from_iso_classes(self):
        # one class of perfect matchings on 4 vertices; |Aut| = 8 by brute force
        g = Hypergraph(4, [(0, 1), (2, 3)])
        auts = 0
        for perm in itertools.permutations(range(4)):
            mapped = Hypergraph(4, [tuple(perm[v] for v in e) for e in g.edges])
            if mapped == g:
                auts += 1
        assert auts == 8
        labeled = enumerate_regular(EnumSpec(r=2, d=1, n=4))
        import math
        assert labeled == math.factorial(4) // auts == 3


class TestPrefixSplitting:
    def test_union_over_first_edges_matches_unsplit(self):
        spec = EnumSpec(r=3, d=2, n=6)
        whole = collect(spec)
        merged = []
        for e in first_edge_choices(spec):
            merged.extend(collect(EnumSpec(r=3, d=2, n=6, prefix=(e,))))
        assert sorted(merged, key=lambda g: g.edges) == \
            sorted(whole, key=lambda g: g.edges)
        assert len(merged) == len(whole)

    def test_only_first_edges_through_vertex_0(self):
        spec = EnumSpec(r=2, d=1, n=10)
        assert first_edge_choices(spec) == [(0, v) for v in range(1, 10)]
        for r, d, n in [(2, 2, 7), (2, 3, 6), (3, 1, 6), (3, 2, 6), (4, 2, 8)]:
            spec = EnumSpec(r=r, d=d, n=n)
            kept = first_edge_choices(spec)
            assert kept == [e for e in itertools.combinations(range(n), r)
                            if e[0] == 0]
            for e in itertools.combinations(range(1, n), r):
                dropped = EnumSpec(r=r, d=d, n=n, prefix=(e,))
                assert enumerate_regular(dropped) == 0, (r, d, n, e)

    def test_up_to_iso_only_the_first_edge_e0(self):
        for r, d, n in [(2, 2, 7), (2, 3, 6), (3, 1, 6), (3, 2, 6), (4, 2, 8)]:
            spec = EnumSpec(r=r, d=d, n=n, up_to_iso=True)
            e0 = tuple(range(r))
            assert first_edge_choices(spec) == [e0]
            for e in itertools.combinations(range(n), r):
                if e != e0:
                    other = EnumSpec(r=r, d=d, n=n, up_to_iso=True, prefix=(e,))
                    assert enumerate_regular(other) == 0, (r, d, n, e)
            chunk = EnumSpec(r=r, d=d, n=n, up_to_iso=True, prefix=(e0,))
            assert collect(chunk) == collect(spec), (r, d, n)

    def test_up_to_iso_second_edge_chunks(self):
        # concatenated in lex order, the (E0, S_t) chunks give the unsplit
        # run once each class is kept at its first emission
        for r, d, n in [(2, 2, 7), (2, 3, 6), (3, 1, 6), (3, 2, 6), (3, 3, 7),
                        (4, 2, 8), (2, 2, 9)]:
            spec = EnumSpec(r=r, d=d, n=n, up_to_iso=True)
            e0 = tuple(range(r))
            merged = []
            for s in second_edges(r, n):
                if _fits((e0, s), n, d):
                    chunk = EnumSpec(r=r, d=d, n=n, up_to_iso=True, prefix=(e0, s))
                    merged.extend(g for g in collect(chunk) if g not in merged)
            assert merged == collect(spec), (r, d, n)

    def test_up_to_iso_nothing_under_other_second_edges(self):
        for r, d, n in [(2, 2, 7), (2, 3, 6), (3, 2, 6), (3, 3, 7), (4, 2, 8)]:
            e0 = tuple(range(r))
            others = [e for e in itertools.combinations(range(n), r)
                      if e > e0 and e not in second_edges(r, n)
                      and _fits((e0, e), n, d)]
            assert others
            for e in others:
                spec = EnumSpec(r=r, d=d, n=n, up_to_iso=True, prefix=(e0, e))
                assert enumerate_regular(spec) == 0, (r, d, n, e)
            # the labeled search finds graphs under some of them
            assert any(enumerate_regular(EnumSpec(r=r, d=d, n=n, prefix=(e0, e)))
                       for e in others)

    def test_up_to_iso_prefixes_of_three_edges_and_more(self):
        # every minimal prefix of 3..m edges, shorter and longer than K:
        # the labeled graphs below it, in lex order, whose first
        # max(K, |prefix|) edges are minimal at every length, keeping the
        # first canonical form of each class
        for r, d, n in [(2, 2, 7), (3, 3, 6)]:
            m = n * d // r
            depth = minimal_depth(m, n)
            candidates = list(itertools.combinations(range(n), r))
            minimal = {}

            def is_minimal(prefix):
                if prefix not in minimal:
                    minimal[prefix] = brute_minimal(prefix, n)
                return minimal[prefix]

            prefixes, stack = [], [()]
            while stack:
                prefix = stack.pop()
                for e in candidates:
                    longer = prefix + (e,)
                    if (not prefix or e > prefix[-1]) and len(longer) <= m \
                            and _fits(longer, n, d) and is_minimal(longer):
                        stack.append(longer)
                        if len(longer) >= 3:
                            prefixes.append(longer)
            assert {len(p) for p in prefixes} == set(range(3, m + 1)), (r, d, n)
            emitting = set()  # whether each emitting prefix is shorter than K
            for prefix in prefixes:
                want, seen = [], set()
                labeled = reference_emissions(EnumSpec(r=r, d=d, n=n, prefix=prefix))
                for g in labeled:
                    if all(is_minimal(g.edges[:k])
                           for k in range(1, max(depth, len(prefix)) + 1)):
                        canon = canonical_form(g)
                        if canon not in seen:
                            seen.add(canon)
                            want.append(canon)
                spec = EnumSpec(r=r, d=d, n=n, up_to_iso=True, prefix=prefix)
                assert collect(spec) == want, prefix
                if want:
                    emitting.add(len(prefix) < depth)
            assert emitting == {True, False}, (r, d, n)

    def test_invalid_prefix(self):
        with pytest.raises(InvalidArgumentError):
            enumerate_regular(EnumSpec(r=2, d=1, n=4, prefix=((0, 1), (0, 2))))
        # up to isomorphism a prefix is checked before it is found to start
        # no class: edges out of lex order, an edge that is no candidate, and
        # an edge that overfills vertex 0
        invalid = [(d, prefix) for d in (1, 2)
                   for prefix in (((0, 2), (0, 1)), ((1, 0),), ((1, 2), (0, 3)))]
        for d, prefix in invalid + [(1, ((0, 1), (0, 2)))]:
            with pytest.raises(InvalidArgumentError):
                enumerate_regular(EnumSpec(r=2, d=d, n=6, up_to_iso=True,
                                           prefix=prefix))
        assert enumerate_regular(EnumSpec(r=2, d=2, n=6, up_to_iso=True,
                                          prefix=((0, 1), (0, 2)))) == 2
        # list edges give the counts of tuple edges
        for prefix, counts in [([[0, 1]], (1, 2)), ([[0, 1], [2, 3]], (1, 0))]:
            for d, want in zip((1, 2), counts):
                spec = EnumSpec(r=2, d=d, n=6, up_to_iso=True, prefix=prefix)
                assert enumerate_regular(spec) == want, (prefix, d)


class TestSpecValidation:
    def test_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            EnumSpec(r=0, d=1, n=3)
        with pytest.raises(InvalidArgumentError):
            EnumSpec(r=3, d=1, n=2)

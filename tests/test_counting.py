import itertools
import random

import pytest

from hyperind import (Caps, CapacityError, EnumSpec, Hypergraph,
                      InvalidArgumentError, build_complete_r_partite, build_hrd, build_matching,
                      build_transversal_design_3, disjoint_union,
                      enumerate_regular, joint_distribution,
                      random_quasi_bipartite)
from hyperind import counting
from hyperind.counting import (count, count_auto, count_branch, count_brute,
                               ind_hrd_formula, independent_set_masks)

from conftest import SWEEP_RANGES, brute_count, random_hypergraph


def cycle(n):
    return Hypergraph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Hypergraph(n, [(i, i + 1) for i in range(n - 1)])


def grid(rows, cols):
    def at(i, j):
        return i * cols + j
    return Hypergraph(rows * cols,
                      [(at(i, j), at(i, j + 1))
                       for i in range(rows) for j in range(cols - 1)]
                      + [(at(i, j), at(i + 1, j))
                         for i in range(rows - 1) for j in range(cols)])


def reference_count_brute(g):
    """``count_brute`` without its cache of edge patterns: the low/high split
    with one loop over the assignments of the high vertices, at every n."""
    k = min(g.n, 20)
    patterns = counting._low_patterns(k)
    everything = (1 << (1 << k)) - 1
    split = []
    for e in g.edges:
        high, low = 0, everything
        for v in e:
            if v < k:
                low &= patterns[v]
            else:
                high |= 1 << (v - k)
        split.append((high, low))
    total = 0
    for assignment in range(1 << (g.n - k)):
        hit = 0
        for high, low in split:
            if high & assignment == high:
                hit |= low
        total += (1 << k) - hit.bit_count()
    return total


def reference_count_branch(g):
    """The recursive branch-and-reduce counter that ``count_branch``
    replaced, kept as an exact reference above ``count_brute``'s cap.

    It splits the constraints ("not all of e selected") into connected
    components, branches on a maximum-degree vertex of each (the included
    branch forces out the vertex of any edge shrunk to one vertex and drops
    the edges that now hold a shrunk one), and caches component counts for
    the call under the component's edges shifted down to vertex 0.  It
    recurses once per level, so it is for inputs of modest depth only.
    """
    return _reference_count(_reference_drop_supersets(g.edge_masks), g.n, {})


def _reference_count(edges, nv, cache):
    result = 1
    for cmask, cedges in _reference_components(edges):
        k = cmask.bit_count()
        nv -= k
        if len(cedges) == 1:
            result *= (1 << k) - 1
            continue
        shift = (cmask & -cmask).bit_length() - 1
        key = tuple(sorted([e >> shift for e in cedges]))
        c = cache.get(key)
        if c is None:
            pivot = _reference_pivot(cedges)
            excluded = [e for e in cedges if not e & pivot]
            shrunk = []
            forced = touched = 0
            for e in cedges:
                if e & pivot:
                    e ^= pivot
                    if e & (e - 1):
                        shrunk.append(e)
                        touched |= e
                    else:
                        forced |= e
            included = shrunk + [
                e for e in excluded if not e & forced and not (
                    e & touched and any(e & s == s for s in shrunk))]
            c = (_reference_count(excluded, k - 1, cache)
                 + _reference_count(included, k - 1 - forced.bit_count(),
                                    cache))
            cache[key] = c
        result *= c
    return result << nv


def _reference_pivot(edges):
    """The bit of a maximum-degree vertex, the smallest on ties."""
    levels = []  # levels[i]: the vertices of degree > i so far
    for e in edges:
        for i, level in enumerate(levels):
            levels[i] = level | e
            e &= level
            if not e:
                break
        else:
            levels.append(e)
    top = levels[-1]
    return top & -top


def _reference_drop_supersets(edges):
    kept = []
    for e in sorted(edges, key=lambda e: e.bit_count()):
        if not any(e & k == k for k in kept):
            kept.append(e)
    return tuple(sorted(kept))


def _reference_components(edges):
    comps = []
    rest = edges
    while rest:
        cmask = rest[0]
        cedges = []
        while True:
            found = len(cedges)
            left = []
            for e in rest:
                if e & cmask:
                    cmask |= e
                    cedges.append(e)
                else:
                    left.append(e)
            rest = left
            if len(cedges) == found or not rest:
                break
        comps.append((cmask, cedges))
    return comps


class TestFormula:
    def test_values(self):
        assert ind_hrd_formula(2, 1) == 3
        assert ind_hrd_formula(3, 2) == 43
        assert ind_hrd_formula(3, 1) == 7
        assert ind_hrd_formula(3, 4) == 1471

    def test_matches_brute_force(self):
        # every (r, d) with rd <= 16
        for r in range(2, 9):
            for d in range(1, 9):
                if r * d > 16:
                    continue
                g, _ = build_hrd(r, d)
                assert ind_hrd_formula(r, d) == count_brute(g), (r, d)

    def test_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            ind_hrd_formula(1, 2)
        with pytest.raises(InvalidArgumentError):
            ind_hrd_formula(2, 0)


class TestBrute:
    def test_no_edges(self):
        assert count_brute(Hypergraph(5)) == 32

    def test_hrd32(self):
        g, _ = build_hrd(3, 2)
        assert count_brute(g) == 43

    def test_c5(self):
        assert count_brute(cycle(5)) == 11

    def test_against_pure_python_oracle(self, rng):
        for _ in range(25):
            g = random_hypergraph(rng.randint(0, 8), rng.choice([2, 3]), rng)
            assert count_brute(g) == brute_count(g)

    def test_cap(self):
        with pytest.raises(CapacityError):
            count_brute(Hypergraph(31))
        assert count_brute(Hypergraph(31), caps=Caps(brute=31)) == 2 ** 31


def mixed_hypergraph(n, rng, max_size=4):
    """Random edges of sizes 1..max_size (fewer on tiny n)."""
    edges = []
    for _ in range(rng.randint(0, n + 2) if n else 0):
        size = rng.choice([1] + list(range(2, max_size + 1)) * 3)
        edges.append(rng.sample(range(n), min(size, n)))
    return Hypergraph(n, edges)


def relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Hypergraph(g.n, [[perm[v] for v in e] for e in g.edges])


class TestBruteLowHighSplit:
    """count_brute handles vertices below 20 as bits of one integer and
    loops over assignments of the rest, and up to 12 vertices reads cached
    edge patterns instead; these cases cover every side."""

    def test_mixed_sizes_against_pure_python_oracle(self, rng):
        assert counting._CACHED_N == 12
        for n in range(15):
            assert count_brute(Hypergraph(n)) == 2 ** n
            cases = [mixed_hypergraph(n, rng) for _ in range(3 if n <= 10 else 1)]
            if n:
                # singletons on the even vertices, the odd ones isolated
                singletons = Hypergraph(n, [(v,) for v in range(0, n, 2)])
                assert count_brute(singletons) == 2 ** (n // 2)
                # a singleton inside a larger edge, beside isolated vertices
                cases.append(Hypergraph(n, [(0,), range(min(n, 3))]))
            for g in cases:
                assert count_brute(g) == brute_count(g), g

    def test_unions_across_vertex_20(self, rng):
        # G1 covers vertices 0..16; G2 sits on 17..n-1, so some of its edges
        # straddle vertex 20 and some lie entirely above it
        for n in range(21, 25):
            g1 = mixed_hypergraph(17, rng)
            g2 = mixed_hypergraph(n - 17, rng, max_size=3)
            # local vertex 3 of G2 is vertex 20 of the union
            g2 = Hypergraph(g2.n, list(g2.edges) + [(2, 3), range(3, g2.n)])
            union = disjoint_union([g1, g2])
            assert any(min(e) < 20 <= max(e) for e in union.edges)
            assert any(min(e) >= 20 for e in union.edges)
            expected = count_brute(g1) * count_brute(g2)
            assert count_brute(union) == expected
            assert count_brute(relabel(union, rng)) == expected


class TestBruteEdgePatternCache:
    """Up to n = 12 count_brute ORs edge patterns from a cache keyed by n;
    above it the low/high split runs and nothing is cached."""

    def test_sweep_graphs_match_reference(self):
        checked = 0

        def visit(g):
            nonlocal checked
            assert count_brute(g) == reference_count_brute(g), g
            checked += 1

        for r, d, n_max in SWEEP_RANGES:
            for n in range(r, n_max + 1):
                enumerate_regular(EnumSpec(r=r, d=d, n=n), visit)
        assert checked == 70335

    def test_cache_is_keyed_by_n(self):
        counting._edge_patterns.cache_clear()
        # one edge on 5 vertices, then the same edge on 6
        assert count_brute(Hypergraph(5, [(0, 1)])) == 24
        assert count_brute(Hypergraph(6, [(0, 1)])) == 48
        assert count_brute(Hypergraph(5, [(0, 1)])) == 24

    def test_cold_and_warm_cache_agree(self, rng):
        graphs = [mixed_hypergraph(n, rng) for n in range(13) for _ in range(4)]
        cold = []
        for g in graphs:
            counting._edge_patterns.cache_clear()
            cold.append(count_brute(g))
        warm = [count_brute(g) for g in graphs]
        assert warm == [count_brute(g) for g in graphs] == cold
        assert cold == [reference_count_brute(g) for g in graphs]

    def test_nothing_cached_above_the_cutoff(self, rng):
        counting._edge_patterns.cache_clear()
        for n in range(13, 21):
            g = mixed_hypergraph(n, rng)
            assert count_brute(g) == reference_count_brute(g), g
        assert counting._edge_patterns.cache_info().currsize == 0
        count_brute(Hypergraph(12, [(0, 11)]))
        assert counting._edge_patterns.cache_info().currsize == 1
        assert dict(counting._edge_patterns(12)) == {
            (0, 11): counting._low_patterns(12)[0]
            & counting._low_patterns(12)[11]}


class TestBranch:
    def test_single_edge(self):
        assert count_branch(Hypergraph(3, [(0, 1, 2)])) == 7

    def test_two_hrd_blocks(self):
        g, _ = build_hrd(3, 2)
        assert count_branch(disjoint_union([g, g])) == 1849

    def test_k33(self):
        g, _ = build_hrd(2, 3)
        assert count_branch(g) == 15
        assert count_brute(g) == 15

    def test_matches_brute_on_constructions(self):
        cases = [build_hrd(2, 3)[0], build_hrd(3, 2)[0], build_hrd(4, 2)[0],
                 build_matching(3, 4), cycle(9), cycle(12)]
        for g in cases:
            assert count_branch(g) == count_brute(g)

    def test_matches_brute_on_random(self, rng):
        for _ in range(300):
            n = rng.randint(0, 10)
            g = random_hypergraph(n, rng.choice([2, 3]), rng)
            assert count_branch(g) == count_brute(g), g

    def test_mixed_sizes_against_brute(self, rng):
        # size-1 and nested edges exercise the superset pass on the input
        for n in range(23):
            for _ in range(6 if n <= 16 else 2):
                g = mixed_hypergraph(n, rng, max_size=5)
                if n >= 2:
                    e = rng.sample(range(n), rng.randint(2, min(n, 5)))
                    g = Hypergraph(n, list(g.edges) + [e, e[:-1], e[:1]])
                assert count_branch(g) == count_brute(g), g

    def test_dense_uniform_against_brute(self, rng):
        # n..2n edges on 16-18 vertices give wide frontiers with many
        # distinct states, so a state that loses a vertex gives wrong counts
        for r in (3, 4):
            for n in (16, 17, 18):
                pool = list(itertools.combinations(range(n), r))
                for _ in range(30):
                    g = Hypergraph(n, rng.sample(pool, rng.randint(n, 2 * n)))
                    assert count_branch(g) == count_brute(g), g

    def test_cycles_give_lucas_numbers(self):
        lucas = [2, 1]
        for n in range(2, 301):
            lucas.append(lucas[-1] + lucas[-2])
        for n in range(3, 301):
            assert count_branch(cycle(n)) == lucas[n], n

    def test_long_cycles_and_paths(self):
        # far deeper than the default recursion limit of 1000
        lucas = [2, 1]
        while len(lucas) <= 5003:
            lucas.append(lucas[-1] + lucas[-2])
        for n in (2000, 5000):
            assert count_branch(cycle(n)) == lucas[n], n
        # P_n has F_(n+2) independent sets, and F_k = (L_(k-1) + L_(k+1)) / 5
        assert count_branch(path(5000)) == (lucas[5001] + lucas[5003]) // 5

    def test_relabeled_unions_of_repeated_blocks(self, rng):
        # copies of one block are translates of each other, so the union as
        # built repeats one block's steps; the relabeled union interleaves
        # them and must give the same count
        for _ in range(6):
            target = rng.randint(40, 60)
            blocks = [mixed_hypergraph(rng.randint(4, 10), rng, max_size=3)] * 3
            while sum(b.n for b in blocks) < target:
                block = mixed_hypergraph(rng.randint(4, 10), rng, max_size=3)
                blocks += [block] * rng.randint(1, 3)
            union = disjoint_union(blocks)
            expected = 1
            for b in blocks:
                expected *= count_brute(b)
            assert count_branch(union) == expected
            assert count_branch(relabel(union, rng)) == expected

    def test_large_structured(self):
        # 10 disjoint H(3,2) blocks: 60 vertices, far beyond the brute cap
        g, _ = build_hrd(3, 2)
        big = disjoint_union([g] * 10)
        assert count_branch(big) == 43 ** 10


class TestBranchAgainstReference:
    """``count_branch`` against the recursive brancher it replaced, on
    inputs beyond ``count_brute``'s cap."""

    def test_relabeled_quasi_bipartite(self, rng):
        shapes = ([(3, 2, num_a) for num_a in range(11, 21)]
                  + [(4, 2, 9), (4, 2, 9), (3, 3, 12)])
        for r, d, num_a in shapes:
            g = relabel(random_quasi_bipartite(r, d, num_a, rng), rng)
            assert count_branch(g) == reference_count_branch(g), (r, d, g)

    def test_grids(self):
        for side in (6, 8):
            g = grid(side, side)
            assert count_branch(g) == reference_count_branch(g), side


class TestDenseCollapse:
    """On dense inputs the forced-out set F keeps the states few: with
    one vertex of a part in, every vertex it shares an edge with is out."""

    def test_complete_bipartite(self):
        for t in (10, 20, 30):
            g = build_complete_r_partite(2, t)
            assert count_branch(g) == (2 ** t) ** 2 - (2 ** t - 1) ** 2, t

    def test_complete_3_partite(self):
        t = 8
        g = build_complete_r_partite(3, t)
        assert count_branch(g) == (2 ** t) ** 3 - (2 ** t - 1) ** 3

    def test_transversal_design(self):
        g = build_transversal_design_3(6)
        assert count_branch(g) == count_brute(g)


class TestProperties:
    def test_multiplicativity(self, rng):
        for _ in range(20):
            g1 = random_hypergraph(rng.randint(0, 6), 2, rng)
            g2 = random_hypergraph(rng.randint(0, 6), 3, rng)
            u = disjoint_union([g1, g2])
            assert count_brute(u) == count_brute(g1) * count_brute(g2)

    def test_adding_edge_never_increases(self, rng):
        import itertools
        for _ in range(20):
            n = rng.randint(3, 8)
            g = random_hypergraph(n, 2, rng)
            pool = [e for e in itertools.combinations(range(n), 2)
                    if e not in g.edges]
            if not pool:
                continue
            extra = rng.choice(pool)
            g2 = Hypergraph(n, list(g.edges) + [extra])
            assert count_brute(g2) <= count_brute(g)

    def test_isolated_vertices_double(self):
        g = Hypergraph(3, [(0, 1)])
        g_iso = Hypergraph(4, [(0, 1)])
        assert count_brute(g_iso) == 2 * count_brute(g)


class TestListIndependentSets:
    """``independent_set_masks``, the listing behind ``joint_distribution``."""

    def test_single_pair_edge(self):
        g = Hypergraph(2, [(0, 1)])
        assert independent_set_masks(g).tolist() == [0b00, 0b01, 0b10]

    def test_h31(self):
        g, _ = build_hrd(3, 1)
        masks = independent_set_masks(g).tolist()
        assert len(masks) == 7
        assert 0b111 not in masks

    def test_h32_length_matches_count(self):
        g, _ = build_hrd(3, 2)
        masks = independent_set_masks(g).tolist()
        assert len(masks) == count_brute(g) == 43
        assert len(set(masks)) == 43

    def test_lexicographic_encoding_order(self, rng):
        g = random_hypergraph(6, 2, rng)
        masks = independent_set_masks(g).tolist()
        assert masks == sorted(masks)
        assert masks == [m for m in range(1 << 6) if g.is_independent(m)]

    def test_within_an_induced_subhypergraph(self, rng):
        # non-contiguous masks exercise every run of the bit scatter
        for _ in range(20):
            g = random_hypergraph(9, rng.choice((2, 3)), rng)
            within = rng.getrandbits(9)
            inside = Hypergraph(9, [e for e in g.edges
                                    if all(within >> v & 1 for v in e)])
            assert independent_set_masks(g, within).tolist() == [
                m for m in range(1 << 9)
                if m & ~within == 0 and inside.is_independent(m)]
        assert independent_set_masks(Hypergraph(3, [(1,)]), 0).tolist() == [0]

    def test_cap(self):
        # the listing's one caller holds the entropy cap
        with pytest.raises(CapacityError):
            joint_distribution(Hypergraph(25))
        assert joint_distribution(Hypergraph(3), caps=Caps(entropy=3)).total == 8
        with pytest.raises(CapacityError):
            joint_distribution(Hypergraph(4), caps=Caps(entropy=3))


class TestAuto:
    def test_routes_agree(self):
        g, _ = build_hrd(3, 2)
        assert count_auto(g) == 43
        big = disjoint_union([g] * 5)
        assert count_auto(big) == 43 ** 5


class TestCountEntryPoint:
    def test_methods_agree(self):
        g, _ = build_hrd(3, 2)
        for method in ("auto", "brute", "branch"):
            assert count(g, method) == 43
        assert count(g) == 43

    def test_unknown_method(self):
        with pytest.raises(InvalidArgumentError):
            count(Hypergraph(2), "fast")

    def test_dispatch_reads_module_attributes(self, monkeypatch):
        # a function rebound on the module (as a tracer does) is the one called
        calls = []

        def spy(g):
            calls.append(g)
            return -1

        monkeypatch.setattr(counting, "count_branch", spy)
        assert count(Hypergraph(3), "branch") == -1
        assert calls == [Hypergraph(3)]

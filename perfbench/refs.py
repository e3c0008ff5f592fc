"""Reference answers for the benchmark, computed without hyperind's timed
code paths.

Closed forms and published sequence values where they exist; otherwise small
pure-Python counters written independently of the library.  The selftest
cross-checks the published values against the naive counters wherever the
naive counters finish quickly.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

# Labeled cubic graphs on n vertices (OEIS A002829).
LABELED_CUBIC = {2: 0, 4: 1, 6: 70, 8: 19355}

# Isomorphism classes of d-regular r-uniform hypergraphs on n vertices that
# the iso workload enumerates outside the partition formula for r=2, d=2.
# Cubic graphs are OEIS A002851; the 3-uniform rows are checked by the
# selftest with a brute-force classifier.
ISO_CLASSES = {(2, 3, 4): 1, (2, 3, 5): 0, (2, 3, 6): 2,
               (3, 2, 6): 2, (3, 3, 6): 4}


def lucas(n: int) -> int:
    """Lucas number L_n, the number of independent sets of the cycle C_n."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def hrd_count(r: int, d: int) -> int:
    """ind(H(r,d)) = 2^((r-1)d) + (2^d - 1)(2^(r-1) - 1)^d."""
    return 2 ** ((r - 1) * d) + (2 ** d - 1) * (2 ** (r - 1) - 1) ** d


def complete_partite_count(r: int, t: int) -> int:
    """Independent sets of the complete r-partite r-graph with parts of size
    t: every subset except those meeting all r parts."""
    return (2 ** t) ** r - (2 ** t - 1) ** r


def partitions_min3(n: int) -> list[list[int]]:
    """Partitions of n into parts >= 3, as non-increasing lists."""
    out: list[list[int]] = []

    def rec(rest: int, cap: int, acc: list[int]) -> None:
        if rest == 0:
            out.append(list(acc))
            return
        for part in range(min(rest, cap), 2, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return out


def labeled_count(r: int, d: int, n: int) -> int | None:
    """Labeled d-regular r-uniform hypergraphs on n vertices, or None when no
    closed form or table entry covers (r, d, n)."""
    if (n * d) % r:
        return 0
    if d == 1:
        k = n // r
        return math.factorial(n) // (math.factorial(r) ** k * math.factorial(k))
    if (r, d) == (2, 2):
        total = 0
        for parts in partitions_min3(n):
            denom = 1
            for size, mult in Counter(parts).items():
                denom *= math.factorial(mult) * (2 * size) ** mult
            total += math.factorial(n) // denom
        return total
    if (r, d) == (2, 3):
        return LABELED_CUBIC.get(n)
    return None


def kdd_union_count(n: int, d: int) -> int:
    """Labeled graphs on n vertices that are disjoint unions of K_{d,d}."""
    if n % (2 * d):
        return 0
    k = n // (2 * d)
    per_block = math.comb(2 * d, d) // 2
    return (math.factorial(n) // (math.factorial(2 * d) ** k * math.factorial(k))
            * per_block ** k)


def iso_class_count(r: int, d: int, n: int) -> int | None:
    if (r, d) == (2, 2):
        return len(partitions_min3(n))
    return ISO_CLASSES.get((r, d, n))


def naive_count(n: int, edges) -> int:
    """Independent sets by testing all 2^n subsets in pure Python."""
    masks = [sum(1 << v for v in e) for e in edges]
    return sum(1 for s in range(1 << n) if all(s & m != m for m in masks))


def naive_regular(r: int, d: int, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every labeled d-regular r-uniform hypergraph on n vertices, by testing
    each set of n*d/r candidate edges."""
    if (n * d) % r:
        return []
    out = []
    for edges in itertools.combinations(itertools.combinations(range(n), r),
                                        n * d // r):
        deg = [0] * n
        for e in edges:
            for v in e:
                deg[v] += 1
        if all(x == d for x in deg):
            out.append(edges)
    return out


def sweep_expectation(r: int, d: int, n: int) -> tuple[int, int, int]:
    """(graphs emitted, violations, equality cases) of a labeled sweep of
    d-regular r-graphs on n vertices.

    For r = 2 the equality cases are the disjoint unions of K_{d,d}
    (Kahn-Zhao); for d = 1 every perfect matching is an equality case; other
    shapes are counted naively, which the sweep keeps to n <= 6.
    """
    total = labeled_count(r, d, n)
    if r == 2:
        return total, 0, kdd_union_count(n, d)
    if d == 1:
        return total, 0, total
    graphs = naive_regular(r, d, n)
    bound = hrd_count(r, d) ** n
    equal = sum(1 for edges in graphs
                if naive_count(n, edges) ** (r * d) == bound)
    return len(graphs), 0, equal


def count_independent(n: int, edges) -> int:
    """Independent sets by branching with a memo on the residual constraints.

    Written apart from hyperind.counting as a cross-check for instances too
    large for exhaustive counting: it branches on the vertex in the most
    constraints (highest label on ties), splits components and memoizes.
    """
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def rec(vmask: int, cons: tuple[int, ...]) -> int:
        if not cons:
            return 1 << vmask.bit_count()
        key = (vmask, cons)
        hit = memo.get(key)
        if hit is not None:
            return hit
        covered = 0
        for c in cons:
            covered |= c
        result = 1 << (vmask & ~covered).bit_count()
        comps: list[int] = []
        for c in cons:
            merged, rest = c, []
            for comp in comps:
                if comp & merged:
                    merged |= comp
                else:
                    rest.append(comp)
            rest.append(merged)
            comps = rest
        if len(comps) > 1:
            for comp in comps:
                result *= rec(comp, tuple(c for c in cons if c & comp))
        else:
            deg: Counter[int] = Counter()
            for c in cons:
                m = c
                while m:
                    low = m & -m
                    deg[low] += 1
                    m ^= low
            bit = max(deg, key=lambda b: (deg[b], b))
            rest_mask = covered & ~bit
            out = rec(rest_mask, tuple(c for c in cons if not c & bit))
            shrunk = {c & ~bit for c in cons}
            inc = 0
            if 0 not in shrunk:
                kept: list[int] = []
                for c in sorted(shrunk, key=int.bit_count):
                    if not any(c & k == k for k in kept):
                        kept.append(c)
                inc = rec(rest_mask, tuple(sorted(kept)))
            result *= out + inc
        memo[key] = result
        return result

    masks = {sum(1 << v for v in e) for e in edges}
    return rec((1 << n) - 1, tuple(sorted(masks)))

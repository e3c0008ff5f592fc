"""Exact independent-set counting.

Three routes, all returning exact Python integers:

* ``ind_hrd_formula`` -- the closed form for the extremal family H(r,d),
* ``count_brute`` -- exhaustive subset iteration, bit-parallel: one bit per
  subset of the low vertices in a Python integer,
* ``count_branch`` -- branch-and-reduce on the monotone constraint system
  "not all of e selected", one constraint per edge, with component
  decomposition at every node.

``count_brute`` is the independent oracle: ``count_branch`` is validated
against it, never the other way around.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .core import Hypergraph, mask_of, vertices_of
from .errors import CapacityError, InvalidArgumentError

BRUTE_CAP = 30
LIST_CAP = 24

_CHUNK = 1 << 20
_LOW_BITS = 20


def ind_hrd_formula(r: int, d: int) -> int:
    """Closed form for the number of independent sets of H(r,d):
    2^((r-1)d) + (2^d - 1)(2^(r-1) - 1)^d."""
    if r < 2:
        raise InvalidArgumentError(f"uniformity r must be >= 2, got {r}")
    if d < 1:
        raise InvalidArgumentError(f"degree d must be >= 1, got {d}")
    return 2 ** ((r - 1) * d) + (2 ** d - 1) * (2 ** (r - 1) - 1) ** d


def count_brute(g: Hypergraph, cap: int | None = None) -> int:
    """Count independent sets by checking every one of the 2^n subsets.

    A subset S is split into its low part (vertices below k = min(n, 20))
    and its high part.  For each assignment of the high vertices, bit s of
    one 2^k-bit integer marks the low parts s for which some edge lies
    inside S; that integer is the OR over the edges whose high part fits the
    assignment of the AND of their low vertices' patterns, and its unset
    bits are the independent sets with that high part.
    """
    cap = BRUTE_CAP if cap is None else cap
    if g.n > cap:
        raise CapacityError(f"count_brute capped at n <= {cap}, got n = {g.n}")
    k = min(g.n, _LOW_BITS)
    patterns = _low_patterns(k)
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


@lru_cache(maxsize=None)
def _low_patterns(k: int) -> tuple[int, ...]:
    """For each v < k, the 2^k-bit integer whose bit s is set iff v is in
    the subset s.  k is at most 20, so the cache holds at most 21 tuples,
    about 5 MB in all."""
    patterns = []
    for v in range(k):
        half = 1 << v
        pattern, width = ((1 << half) - 1) << half, 2 * half
        while width < 1 << k:
            pattern |= pattern << width
            width *= 2
        patterns.append(pattern)
    return tuple(patterns)


def independent_set_masks(g: Hypergraph, cap: int | None = None) -> np.ndarray:
    """All independent sets as a ``np.uint64`` array of bitmasks, in increasing
    order of the encoding."""
    cap = LIST_CAP if cap is None else cap
    if g.n > cap:
        raise CapacityError(
            f"independent set listing capped at n <= {cap}, got n = {g.n}")
    emasks = np.array(g.edge_masks, dtype=np.uint64)
    parts = []
    for start in range(0, 1 << g.n, _CHUNK):
        subs = np.arange(start, min(start + _CHUNK, 1 << g.n), dtype=np.uint64)
        ok = np.ones(len(subs), dtype=bool)
        for em in emasks:
            ok &= (subs & em) != em
        parts.append(subs[ok])
    return np.concatenate(parts)


def list_independent_sets(g: Hypergraph,
                          cap: int | None = None) -> Iterator[frozenset[int]]:
    """Yield every independent set exactly once, in lexicographic order of
    the subset encoding."""
    for m in independent_set_masks(g, cap=cap).tolist():
        yield frozenset(vertices_of(m))


def count_branch(g: Hypergraph, memoize: bool = False) -> int:
    """Branch-and-reduce count of independent sets.

    Branches on a pivot vertex (maximum degree in the current traced
    instance, smallest index on ties): the excluded branch drops the vertex
    and every constraint it appears in; the included branch shrinks those
    constraints, and a constraint shrunk to nothing kills the branch.
    Connected components are counted separately and multiplied.
    """
    vmask = (1 << g.n) - 1
    memo: dict[tuple[int, tuple[int, ...]], int] | None = {} if memoize else None
    return _branch(vmask, tuple(sorted(set(g.edge_masks))), memo)


def _branch(vmask: int, edges: tuple[int, ...],
            memo: dict | None) -> int:
    # unit constraints force their vertex out
    while True:
        units = [e for e in edges if e.bit_count() == 1]
        if not units:
            break
        forced = 0
        for e in units:
            forced |= e
        vmask &= ~forced
        edges = tuple(e for e in edges if not (e & forced))
    if not edges:
        return 1 << vmask.bit_count()

    # drop constraints that contain another constraint
    edges = _drop_supersets(edges)

    if memo is not None:
        key = (vmask, edges)
        hit = memo.get(key)
        if hit is not None:
            return hit

    # component decomposition over constraint supports
    covered = 0
    for e in edges:
        covered |= e
    free = (vmask & ~covered).bit_count()
    result = 1 << free
    for comp in _support_components(edges):
        comp_edges = tuple(e for e in edges if e & comp)
        result *= _branch_component(comp, comp_edges, memo)

    if memo is not None:
        memo[key] = result
    return result


def _branch_component(vmask: int, edges: tuple[int, ...],
                      memo: dict | None) -> int:
    # pivot: max degree, smallest index on ties
    degree: dict[int, int] = {}
    for e in edges:
        m = e
        while m:
            low = m & -m
            degree[low] = degree.get(low, 0) + 1
            m ^= low
    pivot = min(degree, key=lambda b: (-degree[b], b))

    excluded = _branch(vmask & ~pivot,
                       tuple(e for e in edges if not (e & pivot)), memo)
    shrunk = []
    dead = False
    for e in edges:
        if e & pivot:
            e ^= pivot
            if e == 0:
                dead = True
                break
        shrunk.append(e)
    included = 0 if dead else _branch(vmask & ~pivot,
                                      tuple(sorted(set(shrunk))), memo)
    return excluded + included


def _drop_supersets(edges: tuple[int, ...]) -> tuple[int, ...]:
    kept: list[int] = []
    # sorted by popcount so any container comes after its contents
    for e in sorted(edges, key=lambda e: e.bit_count()):
        if not any(e & k == k for k in kept):
            kept.append(e)
    return tuple(sorted(kept))


def _support_components(edges: tuple[int, ...]) -> list[int]:
    comps: list[int] = []
    for e in edges:
        merged = e
        rest = []
        for c in comps:
            if c & merged:
                merged |= c
            else:
                rest.append(c)
        rest.append(merged)
        comps = rest
    return sorted(comps)


def count_auto(g: Hypergraph, threshold: int = 20) -> int:
    """Brute force below the threshold, branch-and-reduce at or above it."""
    return count_brute(g) if g.n < threshold else count_branch(g)

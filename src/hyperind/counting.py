"""Exact independent-set counting.

Three routes, all returning exact Python integers:

* ``ind_hrd_formula`` -- the closed form for the extremal family H(r,d),
* ``count_brute`` -- exhaustive subset iteration, bit-parallel: one bit per
  subset of the low vertices in a Python integer,
* ``count_branch`` -- branch-and-reduce on the monotone constraint system
  "not all of e selected", one constraint per edge, with component
  decomposition at every node and a per-call cache of component counts,
  keyed on a component's edges shifted down to vertex 0 (component
  caching as in #SAT solvers).

``count(g, method)`` is the one entry point: ``"auto"`` runs ``count_auto``
(brute force below 20 vertices, branch-and-reduce from 20), and
``"brute"`` and ``"branch"`` run those routes.

``count_brute`` is the independent oracle: ``count_branch`` is validated
against it, never the other way around.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import Caps, Hypergraph, vertices_of
from .errors import CapacityError, InvalidArgumentError

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


def count_brute(g: Hypergraph, caps: Caps = Caps()) -> int:
    """Count independent sets by checking every one of the 2^n subsets.

    A subset S is split into its low part (vertices below k = min(n, 20))
    and its high part.  For each assignment of the high vertices, bit s of
    one 2^k-bit integer marks the low parts s for which some edge lies
    inside S; that integer is the OR over the edges whose high part fits the
    assignment of the AND of their low vertices' patterns, and its unset
    bits are the independent sets with that high part.
    """
    if g.n > caps.brute:
        raise CapacityError(
            f"count_brute capped at n <= {caps.brute}, got n = {g.n}")
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


def independent_set_masks(g: Hypergraph, within: int | None = None) -> np.ndarray:
    """The independent sets of the subhypergraph induced on the vertex mask
    ``within`` (default: all of g) as a ``np.uint64`` array of bitmasks, in
    increasing order of the encoding.

    It tests all 2^|within| subsets of ``within`` against the edges inside
    it, 2^20 at a time: subset i is i's bits dealt out, in order, to the
    vertices of ``within``, one contiguous run of vertices per shift.
    ``joint_distribution``, its caller, caps n.
    """
    if within is None:
        within = (1 << g.n) - 1
    verts = vertices_of(within)
    runs = []  # [first bit of i, first vertex, length] per run of vertices
    for bit, v in enumerate(verts):
        if bit and verts[bit - 1] == v - 1:
            runs[-1][2] += 1
        else:
            runs.append([bit, v, 1])
    emasks = np.array([em for em in g.edge_masks if em & ~within == 0],
                      dtype=np.uint64)
    parts = []
    for start in range(0, 1 << len(verts), _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, 1 << len(verts)),
                        dtype=np.uint64)
        subs = np.zeros_like(idx)
        for bit, v, length in runs:
            subs |= ((idx >> bit) & ((1 << length) - 1)) << v
        ok = np.ones(len(subs), dtype=bool)
        for em in emasks:
            ok &= (subs & em) != em
        parts.append(subs[ok])
    return np.concatenate(parts)


def count_branch(g: Hypergraph) -> int:
    """Branch-and-reduce count of independent sets with a component cache.

    Each node splits its constraints ("not all of e selected", one per edge)
    into connected components and multiplies their counts; vertices in no
    constraint contribute a factor of 2 each.  A component with one edge
    has 2^|e| - 1 independent sets.  Otherwise it branches on a pivot
    vertex (maximum degree, smallest index on ties): the excluded branch
    drops every constraint through the pivot, and the included branch
    shrinks them, forces out the vertex of any constraint shrunk to one
    vertex, and drops the constraints that now contain a shrunk one.  The
    input is made superset-free once; both branches keep it so.

    A component's vertex set is the union of its edges, so its edges alone
    fix its count.  Counts are cached under the component's edges shifted
    down by its lowest vertex, so translated copies share an entry.  The
    cache lives for one call.
    """
    return _count(_drop_supersets(g.edge_masks), g.n, {})


def _count(edges: list[int] | tuple[int, ...], nv: int,
           cache: dict[tuple[int, ...], int]) -> int:
    """Independent sets of an nv-vertex set that holds every edge of the
    superset-free edge list ``edges``."""
    result = 1
    for cmask, cedges in _components(edges):
        k = cmask.bit_count()
        nv -= k
        if len(cedges) == 1:
            result *= (1 << k) - 1
            continue
        shift = (cmask & -cmask).bit_length() - 1
        key = tuple(sorted([e >> shift for e in cedges]))
        c = cache.get(key)
        if c is None:
            pivot = _pivot(cedges)
            excluded = [e for e in cedges if not e & pivot]
            # including the pivot shrinks its edges; a shrunk edge {v} forces
            # v out, and an unshrunk edge holding a shrunk one is redundant
            # (e - p inside f - p would put e inside f)
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
            c = (_count(excluded, k - 1, cache)
                 + _count(included, k - 1 - forced.bit_count(), cache))
            cache[key] = c
        result *= c
    return result << nv


def _pivot(edges: list[int]) -> int:
    """The bit of a maximum-degree vertex, the smallest on ties."""
    levels: list[int] = []  # levels[i]: the vertices of degree > i so far
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


def _drop_supersets(edges: tuple[int, ...]) -> tuple[int, ...]:
    kept: list[int] = []
    # sorted by popcount so any container comes after its contents
    for e in sorted(edges, key=lambda e: e.bit_count()):
        if not any(e & k == k for k in kept):
            kept.append(e)
    return tuple(sorted(kept))


def _components(edges: list[int] | tuple[int, ...]
                ) -> list[tuple[int, list[int]]]:
    """Connected components of the edges as (vertex mask, edges) pairs."""
    comps = []
    rest = edges
    while rest:
        cmask = rest[0]
        cedges: list[int] = []
        # sweep the rest until a pass adds nothing
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


def count_auto(g: Hypergraph, threshold: int = 20, caps: Caps = Caps()) -> int:
    """Brute force below the threshold, branch-and-reduce at or above it."""
    return count_brute(g, caps) if g.n < threshold else count_branch(g)


METHODS = ("auto", "brute", "branch")


def count(g: Hypergraph, method: str = "auto", caps: Caps = Caps()) -> int:
    """Count independent sets with ``count_<method>``."""
    if method not in METHODS:
        raise InvalidArgumentError(
            f"method must be one of {', '.join(METHODS)}, got {method!r}")
    # looked up at call time, so a rebound module attribute is honoured;
    # count_branch has no cap
    fn = globals()["count_" + method]
    return fn(g) if method == "branch" else fn(g, caps=caps)

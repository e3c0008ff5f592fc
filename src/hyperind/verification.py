"""Exact conjecture checking, construction comparison, and numeric
verification of the entropy proof chain on quasi-bipartite instances.

The headline inequality ind(G) <= ind(H(r,d))^(n/rd) is checked as the
integer comparison ind(G)^(rd) <= ind(H(r,d))^n; floating point is used only
for reported entropies and slack, never for verdicts.  All probabilities are
exact rationals with denominator ind(G); the only rounding site is the final
base-2 logarithm, so every float inequality is checked at a small tolerance.

The proof checker works on the B side of a quasi-bipartite G.  B spans no
edge, and given J = I & B an A-vertex may join I exactly when no edge of its
link lies inside J, so P(I & B = J) is proportional to 2^f(J), f(J) being
the number of such free A-vertices (Kahn's entropy argument rests on the
same factorisation).  ``joint_distribution(g, onto=B)`` lists the 2^|B|
configurations J with those integer weights; every marginal the steps use
is read from them, and no array of 2^n or ind(G) entries is built.  With
``onto`` left at every vertex the same code lists the independent sets
with weight 1 each, the exhaustive table the tests hold the checker to.

The same factorisation serves each A-vertex a.  Whether a is free in J
depends on J & V(L(a)) alone, so X_{a} u X_{V(L(a))} is read from the span
marginal of X_B, and H(X_a, X_B) from that marginal's free weight: no
{a} u B table is built.  Every B-side weight is a power of two, so the
entropy sums of X_B and of X_{a} u X_B are exact integer sums of k 2^k
(``_power_sum``), turned into entropies by ``_entropy_from_sum``.

Given s = J & V(L(a)), a free a is a fair coin with lambda(s) = 2 and a
blocked a is 0 with lambda(s) = 1, so step 4's bound
H(X_a | X_{V(L(a))} = s) <= log2 lambda(s) is read from the free mask and
holds with equality at every s.  Each link is d disjoint (r-1)-sets and B
spans no edge, so the exact steps 6 and 7 hold with equality on every
d-regular quasi-bipartite input; ``count_brute`` still counts each link
as the independent oracle for both.

A marginal projects the configurations onto a vertex subset and sums their
weights exactly in int64 (a stable sort, then ``np.add.reduceat``), so no
Python loop runs over the configurations.  Counts leave the arrays as
Python ints before they reach an entropy sum or a report.  numpy is imported
inside the proof checker's functions, not at module level, so conjecture
checks and comparisons run without loading it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, log2
from typing import Iterable

from . import counting
from .constructions import build_complete_r_partite, \
    build_transversal_design_3
from .core import Caps, Hypergraph, mask_of, quasi_bipartition, vertices_of
from .counting import brute_cap_error, count_brute, \
    independent_set_masks, ind_hrd_formula
from .errors import CapacityError, InvalidArgumentError

PROOF_EPS = 1e-9


# ---------------------------------------------------------------------------
# Conjecture checking


@dataclass(frozen=True)
class ConjectureVerdict:
    """Outcome of the exact check ind(G)^(rd) <= ind(H(r,d))^n."""

    holds: bool
    equality: bool
    r: int
    d: int
    n: int
    ind_g: int
    lhs: int  # ind(G)^(rd)
    rhs: int  # ind(H(r,d))^n
    slack_bits: float  # (log2 rhs - log2 lhs) / (r*d), per-block, >= 0 iff holds


def infer_uniform_regular(g: Hypergraph) -> tuple[int, int]:
    """The (r, d) of a uniform regular hypergraph, with named offenders on
    failure.  Requires r >= 2 and d >= 1.

    The answer is g's cached ``_uniform_regular``.  Its edge-size and
    degree loops run on the first call for g (on every call while they
    raise), and never on a labeled graph that ``enumerate_regular`` emitted
    with an (r, d) they accept, which the graph carries."""
    return g._uniform_regular


@lru_cache(maxsize=4096)
def _verdict(r: int, d: int, n: int, ind_g: int) -> ConjectureVerdict:
    lhs = ind_g ** (r * d)
    rhs = ind_hrd_formula(r, d) ** n
    slack = (log2(rhs) - log2(lhs)) / (r * d)
    return ConjectureVerdict(holds=lhs <= rhs, equality=lhs == rhs,
                             r=r, d=d, n=n, ind_g=ind_g,
                             lhs=lhs, rhs=rhs, slack_bits=slack)


def check_conjecture(g: Hypergraph, caps: Caps = Caps()) -> ConjectureVerdict:
    """Exact verdict on whether g respects the extremal bound of H(r,d).

    r and d are g's cached ``_uniform_regular``, the answer of
    ``infer_uniform_regular``: a graph that ``enumerate_regular`` emitted
    carries them, and any other graph is scanned once and keeps the result.
    ind(G) comes from ``counting.count_auto``, looked up on the module at
    call time, on every call; on a labeled graph of at most 12 vertices
    that the enumeration emitted, ``count_brute`` returns the count the
    graph carries.  The verdict is a function of (r, d, n, ind(G)) alone, so
    it is memoised on that key and equal keys share one frozen
    ``ConjectureVerdict``: a labeled sweep meets few distinct keys and pays
    for the big-integer powers and the logarithms once per key."""
    r, d = g._uniform_regular
    return _verdict(r, d, g.n, counting.count_auto(g, caps))


def is_union_of_kdd(g: Hypergraph, d: int) -> bool:
    """True iff g is a disjoint union of complete bipartite graphs K_{d,d}
    (the known equality cases for r = 2): g is 2-uniform and d-regular, and
    for each edge uv every neighbour of u has the neighbourhood of v.  Each
    of v's d neighbours is then adjacent to all of N(u), so it has the
    neighbourhood of u, and N(u), N(v) are the sides of a K_{d,d} block."""
    if g.uniformity() != 2 or g.regularity() != d:
        return False
    nbrs = [0] * g.n
    for u, v in g.edges:
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    return all(nbrs[w] == nbrs[v]
               for u, v in g.edges for w in vertices_of(nbrs[u]))


# ---------------------------------------------------------------------------
# Construction comparison


@dataclass(frozen=True)
class ComparisonReport:
    """Exact per-block comparison of H(r,d) against a rival construction at a
    common vertex count L = lcm of the block sizes."""

    kind: str  # "complete-r-partite" or "transversal-design-3"
    r: int
    d: int
    rival_n: int
    ind_hrd: int
    ind_rival: int
    L: int
    hrd_power: int  # ind(H(r,d))^(L/(r d))
    rival_power: int  # ind(rival)^(L/rival_n)
    winner: str  # "hrd", "rival", or "tie"


def _compare(kind: str, r: int, d: int, rival: Hypergraph,
             caps: Caps) -> ComparisonReport:
    ind_h = ind_hrd_formula(r, d)
    ind_r = count_brute(rival, caps)
    block_h = r * d
    block_r = rival.n
    L = block_h * block_r // gcd(block_h, block_r)
    hp = ind_h ** (L // block_h)
    rp = ind_r ** (L // block_r)
    winner = "hrd" if hp > rp else ("rival" if rp > hp else "tie")
    return ComparisonReport(kind=kind, r=r, d=d, rival_n=block_r,
                            ind_hrd=ind_h, ind_rival=ind_r, L=L,
                            hrd_power=hp, rival_power=rp, winner=winner)


def compare_constructions(r: int, t: int | None = None, m: int | None = None,
                          caps: Caps = Caps()) -> ComparisonReport:
    """Compare disjoint unions of H(r,d) against the rival family.

    With t set: the complete r-partite r-graph with parts of size t, so
    d = t^(r-1).  With m set: the cyclic 3-partite transversal design of
    order m (requires r = 3), so d = m.
    """
    if (t is None) == (m is None):
        raise InvalidArgumentError("specify exactly one of t (complete) or m (transversal)")
    if t is not None:
        if r < 2 or t < 1:
            raise InvalidArgumentError(f"need r >= 2 and t >= 1, got r={r}, t={t}")
        if r * t > caps.brute:  # before d and the rival are built
            raise brute_cap_error(r * t, caps)
        return _compare("complete-r-partite", r, t ** (r - 1),
                        build_complete_r_partite(r, t), caps)
    if r != 3:
        raise InvalidArgumentError("transversal designs are implemented for r = 3 only")
    if m < 1:
        raise InvalidArgumentError(f"need m >= 1, got m={m}")
    if 3 * m > caps.brute:
        raise brute_cap_error(3 * m, caps)
    return _compare("transversal-design-3", 3, m,
                    build_transversal_design_3(m), caps)


# ---------------------------------------------------------------------------
# Exact distributions and entropy


@dataclass(frozen=True, eq=False)
class SubsetDistribution:
    """Exact probability table over the configurations of a vertex subset.

    `configs` holds the supported configurations, as bitmasks within
    `domain`, in a sorted ``np.uint64`` array; `counts` holds their integer
    weights, numerators over the common denominator `total`.
    """

    domain: int
    configs: np.ndarray
    counts: np.ndarray
    total: int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubsetDistribution):
            return NotImplemented
        import numpy as np

        return (self.domain == other.domain and self.total == other.total
                and np.array_equal(self.configs, other.configs)
                and np.array_equal(self.counts, other.counts))

    def __hash__(self) -> int:
        return hash((self.domain, self.total))

    @property
    def weights(self) -> dict[int, int]:
        """Configuration -> weight, in increasing order of configuration."""
        return dict(zip(self.configs.tolist(), self.counts.tolist()))


def _entropy_cap_error(n: int, caps: Caps) -> CapacityError:
    """The error ``joint_distribution`` raises on n > caps.entropy vertices."""
    return CapacityError(f"joint_distribution capped at n <= {caps.entropy}, got n = {n}")


def joint_distribution(g: Hypergraph, caps: Caps = Caps(),
                       onto: int | None = None) -> SubsetDistribution:
    """The distribution of I & onto for I uniform over the independent sets
    of g, as exact rationals with denominator ind(g).

    ``onto`` is a vertex mask, every vertex by default.  Each edge must meet
    the complement C of ``onto`` in at most one vertex.  Then, given
    J = I & onto, each vertex of C is free or blocked on its own, and the
    weight of J is 2^(number of free vertices of C).  The configurations are
    the subsets of ``onto`` independent in g[onto], in increasing order.
    """
    if g.n > caps.entropy:
        raise _entropy_cap_error(g.n, caps)
    everything = (1 << g.n) - 1
    onto = everything if onto is None else onto
    if onto & ~everything:
        raise InvalidArgumentError("onto holds vertices outside the hypergraph")
    rest = everything & ~onto
    blockers: dict[int, list[int]] = {}  # c in C -> the rest of each edge
    for e, em in zip(g.edges, g.edge_masks):
        outside = em & rest
        if outside & (outside - 1):
            raise InvalidArgumentError(
                f"edge {e} meets the complement of onto in "
                f"{outside.bit_count()} vertices; at most one is allowed")
        if outside:
            blockers.setdefault(outside, []).append(em ^ outside)
    import numpy as np

    configs = independent_set_masks(g, onto)
    blocked = np.zeros(len(configs), dtype=np.int64)
    for rests in blockers.values():
        blocked += _contains_any(configs, rests)
    counts = np.left_shift(np.int64(1), rest.bit_count() - blocked)
    return SubsetDistribution(domain=onto, configs=configs, counts=counts,
                              total=int(counts.sum()))


def _contains_any(configs: np.ndarray, masks: Iterable[int]) -> np.ndarray:
    """Per configuration, whether it holds all of at least one of masks."""
    import numpy as np

    hit = np.zeros(len(configs), dtype=bool)
    for m in masks:
        hit |= (configs & np.uint64(m)) == m
    return hit


def _project(configs: np.ndarray, counts: np.ndarray,
             smask: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of configs & smask, ascending, with their summed
    integer weights: a stable sort, then one int64 ``np.add.reduceat`` over
    each run of equal values.  The sums are exact, and nothing is larger
    than the input."""
    import numpy as np

    keys = configs & np.uint64(smask)
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    run_starts = np.ones(len(keys), dtype=bool)
    run_starts[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(run_starts)
    return keys[starts], np.add.reduceat(counts, starts)


def marginal(dist: SubsetDistribution,
             s: Iterable[int] | int) -> SubsetDistribution:
    """Project the distribution onto the coordinates in s (exact)."""
    smask = s if isinstance(s, int) else mask_of(s)
    if smask & ~dist.domain:
        raise InvalidArgumentError("marginal coordinates outside the domain")
    configs, counts = _project(dist.configs, dist.counts, smask)
    return SubsetDistribution(domain=smask, configs=configs, counts=counts,
                              total=dist.total)


def _a_vertex_marginals(dist_b: SubsetDistribution, b_sum: int, a: int,
                        span_mask: int, link: Iterable[Iterable[int]]
                        ) -> tuple[SubsetDistribution, SubsetDistribution,
                                   np.ndarray, float]:
    """For one A-vertex a: the span marginal m of X_B, the X_{a} u X_span
    marginal, the free mask over m's configurations and H(X_a, X_B), all
    read from m.

    Vertex a is blocked in J when an edge of its link lies inside J, and J
    keeps its weight 2^f(J).  Otherwise a is one of J's f(J) free vertices,
    and the weight splits evenly between J and J + a.  Whether a is free
    depends on s = J & span only; the free mask holds it per configuration
    of m, in m's order.  The X_{a} u X_span weights are m(s)/2 on s and on
    s + a when s is free, and m(s) on s otherwise.  The X_{a} u X_B
    weights are 2^f(J) and 2^(f(J)-1), so their sum of w log2 w is
    ``b_sum`` (the sum over X_B, see ``_power_sum``) less the free weight
    W = sum of m(s) over free s, an exact integer.  This equals ``entropy``
    of the X_{a} u X_B table bit for bit while that sum is below 2^53, as it
    is whenever ind(G) |A| < 2^53; past that it is the more accurate value.
    """
    import numpy as np

    span = marginal(dist_b, span_mask)
    free = ~_contains_any(span.configs, (mask_of(e) for e in link))
    configs = np.concatenate((span.configs,
                              span.configs[free] | np.uint64(1 << a)))
    counts = np.concatenate((np.where(free, span.counts >> 1, span.counts),
                             span.counts[free] >> 1))
    order = np.argsort(configs, kind="stable")
    a_span = SubsetDistribution(domain=span_mask | (1 << a),
                                configs=configs[order], counts=counts[order],
                                total=span.total)
    w_free = int(span.counts[free].sum())
    return span, a_span, free, _entropy_from_sum(dist_b.total, b_sum - w_free)


def _power_sum(counts: np.ndarray) -> int | None:
    """The exact sum of k 2^k over the counts above 1 when each is a power of
    two 2^k, else None.  k is read from the float64 exponent, which is exact
    for every int64 power of two."""
    import numpy as np

    w = counts[counts > 1]
    if (w & (w - 1)).any():
        return None
    per_k = np.bincount(np.frexp(w)[1] - 1).tolist()  # 2^k = 0.5 * 2^(k+1)
    return sum(k * c << k for k, c in enumerate(per_k))


def _entropy_from_sum(total: int, s: int | float) -> float:
    """The entropy log2(total) - s / total of weights whose sum of w log2 w
    is s.  An int s is rounded to a float first, as the float loop holds
    it."""
    return log2(total) - float(s) / total


def entropy(dist: SubsetDistribution) -> float:
    """Shannon entropy in bits: log2(total) - (1/total) * sum w*log2(w).

    When every weight is a power of two 2^k (as on the B side, where each
    weight is 2^f(J)) the sum is the exact integer sum of k 2^k.  Otherwise,
    or when that sum reaches 2^53, it runs over Python ints in increasing
    order of configuration, one float addition at a time, so the result does
    not depend on numpy's summation order.  Below 2^53 every partial sum of
    that loop is an exact integer, so both give the same float.
    """
    s = _power_sum(dist.counts)
    if s is None or s >= 1 << 53:
        s = 0.0
        for w in dist.counts[dist.counts > 1].tolist():
            s += w * log2(w)
    return _entropy_from_sum(dist.total, s)


# ---------------------------------------------------------------------------
# Proof-step verification


def _tighter(best: tuple | None, lhs, rhs) -> tuple:
    """The tighter of `best` and (lhs, rhs) for a step lhs <= rhs: the one
    with the larger lhs - rhs, keeping the earlier one on ties."""
    return (lhs, rhs) if best is None or lhs - rhs > best[0] - best[1] else best


@dataclass(frozen=True)
class ProofStep:
    name: str
    lhs: float
    rhs: float
    passed: bool

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class ProofStepReport:
    n: int
    r: int
    d: int
    ind_g: int
    log2_ind: float
    hrd_bound_bits: float  # (n/rd) * log2 ind(H(r,d))
    steps: tuple[ProofStep, ...]
    findings: tuple[str, ...]

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.steps)


def verify_proof_steps(g: Hypergraph, caps: Caps = Caps()) -> ProofStepReport:
    """Numerically check every inequality in the entropy argument bounding
    ind(G) for a d-regular quasi-bipartite r-graph G.

    Steps, in the order the argument chains them:

    1. cover validity (exact): the link spans {V(L(a)) : a in A} cover each
       B-vertex exactly d times;
    2. Shearer: H(X_B) <= (1/d) sum_a H(X_{V(L(a))});
    3. subadditivity: H(X_A | X_B) <= sum_a H(X_a | X_B), plus the equality
       H(X_a | X_B) = H(X_a | X_{V(L(a))}) (two-sided; a violation beyond
       PROOF_EPS is reported as a finding, not a failure);
    4. per-configuration bound: lambda(I) in {1, 2} and
       H(X_a | X_{V(L(a))} = I) <= log2 lambda(I);
    5. Jensen: sum_I p(I) log2(lambda(I)^d / p(I)) <= log2 sum_I lambda(I)^d;
    6. counting bound (exact): sum_I lambda(I)^d
       <= 2^|V(L(a))| + (2^d - 1) ind(L(a));
    7. link bound (exact): ind(L(a)) <= (2^(r-1) - 1)^d;
    8. final: H(X) <= (n/rd) log2 ind(H(r,d)).

    Step 4 is read from the free mask of ``_a_vertex_marginals``: given I, a
    free a is a fair coin and lambda(I) = 2, a blocked a is 0 and
    lambda(I) = 1, so the bound holds with equality at every configuration.
    Each link is d disjoint (r-1)-sets of B and B spans no edge, so steps 6
    and 7 hold with equality on every d-regular quasi-bipartite input;
    ``count_brute`` still counts each link, as the independent oracle.

    The float inequalities are checked at a tolerance of PROOF_EPS bits.
    """
    r, d = infer_uniform_regular(g)
    if g.n > caps.entropy:  # before the recogniser searches for a bipartition
        raise _entropy_cap_error(g.n, caps)
    cert = quasi_bipartition(g)
    if cert is None:
        raise InvalidArgumentError(
            "hypergraph is not quasi-bipartite (recognizer found no certificate)")

    a_side = sorted(cert.a_side)
    b_mask = mask_of(cert.b_side)
    # X_B with weight 2^f(J) on each J, which sum to ind(G); X is uniform
    dist_b = joint_distribution(g, caps, onto=b_mask)
    ind_g = dist_b.total
    h_x = log2(ind_g)
    h_b = entropy(dist_b)
    b_sum = _power_sum(dist_b.counts)  # exact: every weight is 2^f(J)

    # one pass over A: per a, the span marginal, X_{a} u X_span, the free
    # mask and H(X_a, X_B) come from one projection of X_B; steps (4)-(7)
    # each keep their tightest (lhs, rhs)
    cover = {b: 0 for b in cert.b_side}
    h_spans: list[float] = []
    sub_terms: list[float] = []  # H(X_a | X_B) per a
    findings: list[str] = []
    worst_eq = 0.0
    worst_lambda = worst_jensen = worst_count = worst_link = None
    for a in a_side:
        link = cert.link_matchings[a]
        smask = mask_of(v for e in link for v in e)
        span, a_span, free, h_a_b = _a_vertex_marginals(dist_b, b_sum, a,
                                                        smask, link)
        for b in vertices_of(smask):
            cover[b] += 1
        h_span = entropy(span)
        h_spans.append(h_span)
        sub_terms.append(h_a_b - h_b)
        diff = abs(sub_terms[-1] - (entropy(a_span) - h_span))
        worst_eq = max(worst_eq, diff)
        if diff > PROOF_EPS:
            findings.append(
                f"conditioning reduction differs by {diff:.3e} bits at vertex {a}")
        # (4) H(X_a | X_span = s) = log2 lambda(s) at every s, so every
        # margin is 0 and the first configuration, the empty one, is tightest
        lams = [2 if f else 1 for f in free.tolist()]
        worst_lambda = _tighter(worst_lambda, log2(lams[0]), log2(lams[0]))
        # (5) Jensen
        lam_sum = sum(lam ** d for lam in lams)
        jensen_lhs = sum(
            (w / span.total) * (d * log2(lam) - log2(w / span.total))
            for w, lam in zip(span.counts.tolist(), lams))
        worst_jensen = _tighter(worst_jensen, jensen_lhs, log2(lam_sum))
        # (6) exact counting bound
        link_graph = Hypergraph(g.n, link).restrict(vertices_of(smask))
        ind_link = count_brute(link_graph, caps)
        bound6 = 2 ** smask.bit_count() + (2 ** d - 1) * ind_link
        worst_count = _tighter(worst_count, lam_sum, bound6)
        # (7) exact link bound
        worst_link = _tighter(worst_link, ind_link, (2 ** (r - 1) - 1) ** d)

    steps: list[ProofStep] = []

    # (1) exact d-cover of B by the link spans
    counts = sorted(cover.values()) or [d]
    steps.append(ProofStep("cover-validity", float(counts[0]), float(counts[-1]),
                           counts[0] == d and counts[-1] == d))

    # (2) Shearer over the d-cover
    shearer_rhs = sum(h_spans) / d
    steps.append(ProofStep("shearer", h_b, shearer_rhs, h_b <= shearer_rhs + PROOF_EPS))

    # (3) subadditivity of H(X_A | X_B) and the conditioning reduction
    h_a_given_b = h_x - h_b
    sub_rhs = sum(sub_terms)
    steps.append(ProofStep("subadditivity", h_a_given_b, sub_rhs,
                           h_a_given_b <= sub_rhs + PROOF_EPS))
    steps.append(ProofStep("conditioning-reduction", worst_eq, 0.0, True))

    steps.append(ProofStep("lambda-bound", worst_lambda[0], worst_lambda[1],
                           worst_lambda[0] <= worst_lambda[1] + PROOF_EPS))
    steps.append(ProofStep("jensen", worst_jensen[0], worst_jensen[1],
                           worst_jensen[0] <= worst_jensen[1] + PROOF_EPS))
    steps.append(ProofStep("counting-bound", float(worst_count[0]),
                           float(worst_count[1]),
                           worst_count[0] <= worst_count[1]))
    steps.append(ProofStep("link-bound", float(worst_link[0]),
                           float(worst_link[1]), worst_link[0] <= worst_link[1]))

    # (8) final bound
    hrd_bound = (g.n / (r * d)) * log2(ind_hrd_formula(r, d))
    steps.append(ProofStep("final-bound", h_x, hrd_bound, h_x <= hrd_bound + PROOF_EPS))

    return ProofStepReport(n=g.n, r=r, d=d, ind_g=ind_g, log2_ind=h_x,
                           hrd_bound_bits=hrd_bound, steps=tuple(steps),
                           findings=tuple(findings))

"""hyperind: exact counting and verification for independent sets in
regular uniform hypergraphs."""

from .constructions import HrdLayout, build_complete_r_partite, build_hrd, \
    build_matching, build_transversal_design_3, random_quasi_bipartite
from .core import Caps, Hypergraph, QuasiBipartition, VertexSet, \
    canonical_form, disjoint_union, mask_of, quasi_bipartition, vertices_of
from .counting import count, count_auto, count_branch, count_brute, \
    ind_hrd_formula
from .enumeration import EnumSpec, enumerate_regular
from .errors import CapacityError, InvalidArgumentError, ParseError
from .hgio import read_hypergraph, write_hypergraph
from .verification import ComparisonReport, ConjectureVerdict, \
    ProofStepReport, SubsetDistribution, check_conjecture, \
    compare_constructions, entropy, joint_distribution, marginal, \
    verify_proof_steps

__version__ = "0.1.0"

__all__ = [
    "Caps", "Hypergraph", "QuasiBipartition", "VertexSet",
    "canonical_form", "disjoint_union", "quasi_bipartition",
    "mask_of", "vertices_of",
    "read_hypergraph", "write_hypergraph",
    "HrdLayout", "build_hrd", "build_complete_r_partite",
    "build_transversal_design_3", "build_matching", "random_quasi_bipartite",
    "ind_hrd_formula", "count", "count_brute", "count_branch", "count_auto",
    "EnumSpec", "enumerate_regular",
    "ConjectureVerdict", "ComparisonReport", "ProofStepReport",
    "SubsetDistribution", "check_conjecture", "compare_constructions",
    "joint_distribution", "marginal", "entropy",
    "verify_proof_steps",
    "InvalidArgumentError", "CapacityError", "ParseError",
]

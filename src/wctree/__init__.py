"""Executable tree characterization of weak compactness, at desk scale.

The library decides, with certificates, whether finite selections from a
countable bounded convex set admit small-norm convex combinations or stay
uniformly far from zero while behaving like a basic sequence.  Those two
node predicates generate a tree; a certified infinite-looking branch is
evidence against weak compactness, and bounded well-foundedness is evidence
for it.  A small order-theoretic engine (ascending orbits in finite posets)
and an averaged fixed-point iteration round out the toolkit.
"""

from .enumeration import (pair, rational_decode, rational_encode, seq_decode,
                          seq_encode, support_decode, support_encode, unpair)
from .errors import (ConfigurationError, ContractViolation, ModelIntegrityError,
                     UnsupportedModelError)
from .spaces import (BUILTIN_SPACES, C0, L1, L2, Functional, NormValue,
                     SpaceModel, Vector, combine, conjugate_norm, dense_index,
                     dense_point, lp_space, norm, norm_cmp, pairing, sup_space)
from .sets import (SetModel, build_set, dense_space, explicit_list, hilbert_cube,
                   set_from_json, summing_hull, summing_vector, unit_ball,
                   unit_ball_model, unit_vector_family, unit_vector_hull)
from .predicates import (DualCertificate, PrefixWitness, SchauderReport,
                         SimplexMinResult, SimplexWitness, Verdict3,
                         is_M_schauder, is_eps_dominating, mazur_combination,
                         simplex_min_norm)
from .trees import (BranchCertificate, NodeEvaluation, SearchBudget,
                    SearchStats, StackedTree, WcTree, WfVerdict,
                    bounded_wf_search, branch_search, encode_characteristic,
                    expand, levels, rank_within, validate_certificate, walk)
from .fixedpoint import (AscentResult, FinitePoset, KmResult, MAP_REGISTRY,
                         NonexpMapHandle, SaturationResult, build_map,
                         invariant_set_saturate, km_iterate,
                         maximal_via_uniformization, uniformize_least,
                         uniformize_relation, verify_nonexpansive,
                         zermelo_iterate)

__version__ = "0.1.0"

__all__ = [
    "AscentResult", "BranchCertificate", "BUILTIN_SPACES", "C0",
    "ConfigurationError", "ContractViolation", "DualCertificate",
    "FinitePoset", "Functional", "KmResult", "L1", "L2", "MAP_REGISTRY",
    "ModelIntegrityError", "NodeEvaluation", "NonexpMapHandle", "NormValue",
    "PrefixWitness", "SaturationResult", "SchauderReport", "SearchBudget",
    "SearchStats", "SetModel", "SimplexMinResult", "SimplexWitness",
    "SpaceModel", "StackedTree", "UnsupportedModelError", "Vector",
    "Verdict3", "WcTree", "WfVerdict", "bounded_wf_search", "branch_search",
    "build_map", "build_set", "combine", "conjugate_norm", "dense_index",
    "dense_point", "dense_space", "encode_characteristic", "expand",
    "explicit_list", "hilbert_cube", "invariant_set_saturate",
    "is_M_schauder", "is_eps_dominating", "km_iterate", "levels", "lp_space",
    "maximal_via_uniformization", "mazur_combination", "norm", "norm_cmp",
    "pair", "pairing", "rank_within", "rational_decode", "rational_encode",
    "seq_decode", "seq_encode", "set_from_json", "simplex_min_norm",
    "summing_hull", "summing_vector", "sup_space", "support_decode",
    "support_encode", "uniformize_least", "uniformize_relation", "unit_ball",
    "unit_ball_model", "unit_vector_family", "unit_vector_hull", "unpair",
    "validate_certificate", "verify_nonexpansive", "walk", "zermelo_iterate",
    "__version__",
]

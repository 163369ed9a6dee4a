"""Annulus classification calculus for genus-two handlebody-knot exteriors.

Exact, dependency-free computations: rank-2 free-group word algebra with a
Whitehead primitivity decision, rational-tangle continued-fraction values, the
reference-arc crossing calculus on the 4-punctured sphere, boundary words
of the twisted Moebius-band families, the type 4-1 / type-M / type-S
classification pipelines, and a rule validator for decomposition graphs.
"""

from .arcs import (PairedUnitSequence, SequenceExtension, alternating, interpolating,
                   reference_crossings)
from .boundary import (ParamError, TypeKParams, boundary_word, delta_claim_gamma,
                       homology_class, normalize_negative_beta, params_violations,
                       validate_params)
from .classify import (AnnulusType, CensusReport, ClassificationOutcome, EmGraph,
                       EmParams, ExternalFactError, Verdict, classify_typeK_annulus,
                       classify_typeM, classify_typeS, em_invariants, em_jsj_graph,
                       five_two_report, non_type41_window, typeK_census)
from .freegroup import (Word, are_conjugate, cho_koda_criterion, concat, cyclic_reduce,
                        format_word, is_power_of_primitive, is_primitive,
                        parse_word, reduce, root)
from .jsjgraph import (Edge, JsjGraph, NodeKind, SlopePair, Violation, graph_k,
                       graph_m, parse_graph, slope_rules, trivial_graph, validate,
                       validate_labels, validate_slopes, validate_structure)
from .tangle import (ExtendedRational, RationalTangle, cf_eval, is_integral,
                     meridian_count)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Annulus classification calculus for genus-two handlebody-knot exteriors.

Exact, dependency-free computations: rank-2 free-group word algebra with a
Whitehead primitivity decision, rational-tangle continued-fraction values, the
reference-arc crossing calculus on the 4-punctured sphere, boundary words
of the twisted Moebius-band families, the type 4-1 / type-M / type-S
classification pipelines, and a rule validator for decomposition graphs.
"""

from types import ModuleType as _ModuleType

from .boundary import (ParamError, TypeKParams, boundary_word, normalize_negative_beta,
                       params_violations, validate_params)
from .classify import (AnnulusType, CensusReport, ClassificationOutcome, EmGraph,
                       EmParams, ExternalFactError, Verdict, classify_typeK_annulus,
                       classify_typeM, classify_typeS, em_invariants, em_jsj_graph,
                       non_type41_window, typeK_census)
from .freegroup import (Word, are_conjugate, cho_koda_criterion, concat, cyclic_reduce,
                        format_word, is_power_of_primitive, is_primitive,
                        parse_word, reduce, root)
from .jsjgraph import (Edge, JsjGraph, NodeKind, SlopePair, Violation, parse_graph,
                       validate, validate_labels, validate_slopes, validate_structure)
from .tangle import (ExtendedRational, RationalTangle, cf_eval, is_integral,
                     meridian_count)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"

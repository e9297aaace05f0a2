"""Exact-arithmetic quasi-Poisson brackets on representation spaces of
compact oriented surfaces with boundary, built from the homotopy
intersection pairing on the fundamental group through double brackets."""

from .algebra import AlgElem, Tensor2, Tensor3, inner_act, m2, m3, outer_act, permute, tensor2, tensor3
from .dbracket import (CyclicAlgElem, SurfaceDoubleBracket, angle, dbl_from_inner,
                       dbl_from_pairing, goldman, is_quasi_poisson, moment_neg_power_rhs,
                       moment_power_rhs, moment_rhs, project_cyclic, triple, triple_e)
from .evaluation import (FusionBivector, RepPoint, bivector_bracket, build_fusion_bivector,
                         compare_bivectors, compare_constructions, evaluate, sample_rep_point)
from .foxpairing import SurfaceFoxPairing, inner_pairing, rho_1, transpose_apply
from .repalgebra import RepAlgebra, RepElem
from .words import (CyclicWord, SurfaceSignature, Word, WordParseError, boundary_word,
                    format_cyclic, format_word, parse_word, sample_word)

__version__ = "0.1.0"

__all__ = [
    "AlgElem", "CyclicAlgElem", "CyclicWord", "FusionBivector", "RepAlgebra", "RepElem",
    "RepPoint", "SurfaceDoubleBracket", "SurfaceFoxPairing", "SurfaceSignature", "Tensor2",
    "Tensor3", "Word", "WordParseError", "angle", "bivector_bracket", "boundary_word",
    "build_fusion_bivector", "compare_bivectors", "compare_constructions", "dbl_from_inner",
    "dbl_from_pairing", "evaluate", "format_cyclic", "format_word", "goldman", "inner_act",
    "inner_pairing", "is_quasi_poisson", "m2", "m3", "moment_neg_power_rhs",
    "moment_power_rhs", "moment_rhs", "outer_act", "parse_word", "permute",
    "project_cyclic", "rho_1", "sample_rep_point", "sample_word", "tensor2", "tensor3",
    "transpose_apply", "triple", "triple_e",
]

"""Exact-arithmetic engine for geometric idealizer rings inside Zhang twists.

Everything is computed over Q or a prime field with no floating point:
Groebner bases and Hilbert data (polykernel), graded Tor and transversality
(homology), the twisted product and linear automorphisms (twist), the
degree-by-degree section ring R_n = (I : I^{sigma^n})_n (idealizer), orbit
and transversality certificates (geometry), the component split and verdict
table (classify), and the scene-file front end (cli).
"""

from .errors import ResourceCapError
from .fields import QQ, PrimeField, RationalField
from .polykernel import (
    HomIdeal,
    PolyRing,
    codimension,
    degree_piece_basis,
    dim_full_space,
    dim_ideal_piece,
    hilbert_function,
    ideal_equal,
    ideal_quotient,
    ideal_sum,
    intersect,
    saturate,
)
from .homology import (
    ImproperIntersectionError,
    free_resolution,
    graded_tor,
    homologically_transverse,
    serre_multiplicity_total,
    truncated_tor_over_quotient,
)
from .twist import (
    DegreePiece,
    ProjAutomorphism,
    TwistedElement,
    twist_multiply,
)
from .idealizer import (
    IdealizerScene,
    SceneVerificationError,
    exhaustive_oracle_piece,
    idealizer_hilbert,
    idealizer_piece,
    membership_oracle,
    pieces_agree,
    stabilization_degree,
)
from .geometry import (
    CTCertificate,
    OrbitReport,
    RationalPoint,
    critical_transversality_certificate,
    forward_orbit_hits,
    multiplicative_independence,
)
from .classify import (
    ClassificationReport,
    ClassificationRow,
    ComponentAnalysis,
    Evidence,
    OrderResult,
    classify,
    component_analysis,
    reduced_point_of,
    sigma_ideal_order,
)
from .cli import SceneFile, parse_scene

__version__ = "0.1.0"

__all__ = [
    "QQ", "PrimeField", "RationalField",
    "HomIdeal", "PolyRing", "ResourceCapError", "codimension",
    "degree_piece_basis", "dim_full_space", "dim_ideal_piece",
    "hilbert_function", "ideal_equal",
    "ideal_quotient", "ideal_sum", "intersect", "saturate",
    "ImproperIntersectionError", "free_resolution", "graded_tor",
    "homologically_transverse", "serre_multiplicity_total",
    "truncated_tor_over_quotient",
    "DegreePiece", "ProjAutomorphism", "TwistedElement", "twist_multiply",
    "IdealizerScene", "SceneVerificationError", "exhaustive_oracle_piece",
    "idealizer_hilbert", "idealizer_piece", "membership_oracle",
    "pieces_agree", "stabilization_degree",
    "CTCertificate", "OrbitReport", "RationalPoint",
    "critical_transversality_certificate", "forward_orbit_hits",
    "multiplicative_independence",
    "ClassificationReport", "ClassificationRow", "ComponentAnalysis",
    "Evidence", "OrderResult", "classify", "component_analysis",
    "reduced_point_of", "sigma_ideal_order",
    "SceneFile", "parse_scene",
]

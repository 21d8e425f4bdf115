"""spinpic: exact-rational divisor-class calculus on the moduli spaces of
curves and even spin curves.

All arithmetic is exact: scalars are fractions.Fraction, and a class holds
integer numerators over one common denominator.
The package computes the transfer maps of the spin covering, pairs test
pencils with divisor classes, re-derives the theta-null class from the
vanishing-theta-null class and the pencils, and emits per-genus
Kodaira-type certificates.
"""

from .catalog import (
    BrillNoether,
    DivisorSpec,
    GiesekerPetri,
    K3,
    UserSupplied,
    bn_class,
    canonical_m,
    canonical_s,
    choose_d,
    divisor_class,
    m1_theta_class,
    rho,
    thetanull_class,
)
from .errors import SpinPicError
from .kodaira import (
    GENERAL_TYPE,
    KAPPA_NONNEGATIVE,
    KodairaCertificate,
    UNIRULED,
    classify,
    decompose_canonical,
    uniruled_certificate,
)
from .picard import (
    DivisorClass,
    GenusCtx,
    M_SIDE,
    S_SIDE,
    basis_class,
    lincomb,
    parse_class,
    rational,
    render_class,
    zero_class,
)
from .testcurves import curve_map, intersect, solve_thetanull
from .transfer import degree_identities, pullback, pushforward

__version__ = "0.1.0"

__all__ = [
    "BrillNoether",
    "DivisorClass",
    "DivisorSpec",
    "GENERAL_TYPE",
    "GenusCtx",
    "GiesekerPetri",
    "K3",
    "KAPPA_NONNEGATIVE",
    "KodairaCertificate",
    "M_SIDE",
    "S_SIDE",
    "SpinPicError",
    "UNIRULED",
    "UserSupplied",
    "basis_class",
    "bn_class",
    "canonical_m",
    "canonical_s",
    "choose_d",
    "classify",
    "curve_map",
    "decompose_canonical",
    "degree_identities",
    "divisor_class",
    "intersect",
    "lincomb",
    "m1_theta_class",
    "parse_class",
    "pullback",
    "pushforward",
    "rational",
    "render_class",
    "rho",
    "solve_thetanull",
    "thetanull_class",
    "uniruled_certificate",
    "zero_class",
]

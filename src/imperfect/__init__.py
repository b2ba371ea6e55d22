"""Exact algebra over rational function fields of small characteristic.

The ground fields F_p(x_1, ..., x_n) here are imperfect, and everything
in the package leans on that: coordinates relative to p-th power spans,
subfield towers pinched between K^p and K, rank-1 groups over additive
lines that are not fields, unipotent groups whose slot coordinates live
in prescribed subfields, and procedures that recover the field data back
out of the groups. All arithmetic is exact; nothing is floating point.

Modules: field (contexts and rational function arithmetic), pbasis
(p-th power coordinates and independence), tower (subfield chains,
R-space towers, indifferent sets), rank1 (2x2 realization, Bruhat form,
torus membership, codimension-one factorization), unipotent (hexagon and
quadrangle groups with a diagonal torus action), sp4 (the 4x4 symplectic
realization and its membership procedures), reconstruct (oracle-side
recovery with verification), presets and suite (named instances and the
seeded property suite), cli (the command-line front end).
"""

from .field import (
    Context,
    FieldError,
    ImperfectError,
    ParseError,
    RatFunc,
    frobenius,
    parse_element,
    pth_root,
    render_element,
)
from .pbasis import is_p_independent, lambda_coords, reconstruct
from .presets import Bundle, Config, preset, preset_names
from .rank1 import (
    Mat2,
    TimmesfeldData,
    bruhat2,
    factor_codim1,
    field_structure,
    gen,
    membership_sl2L,
    mult_bruhat,
    perfectness_witness,
    torus_membership,
)
from .reconstruct import (
    ReconstructError,
    c2_recover,
    g2_recover,
    make_c2_oracle,
    make_g2_oracle,
    negative_control,
    verify_recovery,
)
from .sp4 import (
    Mat4,
    Sp4Root,
    build_group_from_M,
    chevalley_gen,
    membership_psp4,
    perfectness_witness_sp4,
    sp4_bruhat,
    torus_matrix,
    torus_normalizer_check,
)
from .suite import SuiteConfig, run_suite
from .tower import (
    IndifferentSpec,
    InvariantViolation,
    RSpaceSpec,
    SpecError,
    SubfieldSpec,
    TowerSpec,
    stabilizer_field,
    validate_indifferent,
    validate_tower,
)
from .unipotent import (
    RootDatum2,
    TorusElement2,
    UElement,
    c2_datum,
    center_member,
    commutator,
    g2_datum,
    parse_uword,
    torus_act,
    torus_normalizes,
    u_inverse,
    u_mult,
    z2_member,
)

__version__ = "0.1.0"

__all__ = [
    "Bundle",
    "Config",
    "Context",
    "FieldError",
    "ImperfectError",
    "IndifferentSpec",
    "InvariantViolation",
    "Mat2",
    "Mat4",
    "ParseError",
    "RSpaceSpec",
    "RatFunc",
    "ReconstructError",
    "RootDatum2",
    "Sp4Root",
    "SpecError",
    "SubfieldSpec",
    "SuiteConfig",
    "TimmesfeldData",
    "TorusElement2",
    "TowerSpec",
    "UElement",
    "bruhat2",
    "build_group_from_M",
    "c2_datum",
    "c2_recover",
    "center_member",
    "chevalley_gen",
    "commutator",
    "factor_codim1",
    "field_structure",
    "frobenius",
    "g2_datum",
    "g2_recover",
    "gen",
    "is_p_independent",
    "lambda_coords",
    "make_c2_oracle",
    "make_g2_oracle",
    "membership_psp4",
    "membership_sl2L",
    "mult_bruhat",
    "negative_control",
    "parse_element",
    "parse_uword",
    "perfectness_witness",
    "perfectness_witness_sp4",
    "preset",
    "preset_names",
    "pth_root",
    "reconstruct",
    "render_element",
    "run_suite",
    "sp4_bruhat",
    "stabilizer_field",
    "torus_act",
    "torus_matrix",
    "torus_membership",
    "torus_normalizer_check",
    "torus_normalizes",
    "u_inverse",
    "u_mult",
    "validate_indifferent",
    "validate_tower",
    "verify_recovery",
    "z2_member",
]

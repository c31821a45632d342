"""Exact calculus for potentials on doubled type-A quivers.

Scalars are exact rationals (``qpcalc.field``) and the realization's
polynomials are the package's own Q[x, y] (``qpcalc.realize.Poly``), so
nothing outside the standard library is required.
"""

from .field import QQ, rational, rational_str
from .quiver import double_an, DoubledPathQuiver, Quiver
from .series import NCElement
from .cycles import Potential, canonical_cycle, cycle_from_slots, x_monomial
from .subst import Substitution, compose, compose_chain
from .rewrite import ReductionSystem, system_from_relations
from .jacobi import (
    fingerprint,
    jacobi_relations,
    jdim,
    jdim_oracle,
    same_ideal_below,
    vertex_commutativity,
)
from .monomial import (
    add_loop,
    eliminate_loop,
    extract_monomial,
    monomialize,
    potential_from_kappa,
    rescale_middle,
    type_a_report,
)
from .a3 import (
    A3Class,
    NotOnQ,
    apq_orbit,
    apq_relations,
    class_potential,
    classify,
    derived_orbit,
    flop,
    gv_set,
    lambda_orbit,
    mu_orbit,
    normalize,
    swap_class,
    xy_potential,
)
from .realize import (
    a3_realize,
    contraction_relations,
    emit_presentation,
    h_row,
    solve_g_system,
)
from .appendix import appendix_checks, appendix_quiver, exactness_check
from .serialize import potential_from_json, potential_to_json

__all__ = [
    "QQ",
    "rational",
    "rational_str",
    "double_an",
    "DoubledPathQuiver",
    "Quiver",
    "NCElement",
    "Potential",
    "canonical_cycle",
    "cycle_from_slots",
    "x_monomial",
    "Substitution",
    "compose",
    "compose_chain",
    "ReductionSystem",
    "system_from_relations",
    "fingerprint",
    "jacobi_relations",
    "jdim",
    "jdim_oracle",
    "same_ideal_below",
    "vertex_commutativity",
    "add_loop",
    "eliminate_loop",
    "extract_monomial",
    "monomialize",
    "potential_from_kappa",
    "rescale_middle",
    "type_a_report",
    "a3_realize",
    "contraction_relations",
    "emit_presentation",
    "h_row",
    "solve_g_system",
    "A3Class",
    "NotOnQ",
    "apq_orbit",
    "apq_relations",
    "class_potential",
    "classify",
    "derived_orbit",
    "flop",
    "gv_set",
    "lambda_orbit",
    "mu_orbit",
    "normalize",
    "swap_class",
    "xy_potential",
    "appendix_checks",
    "appendix_quiver",
    "exactness_check",
    "potential_from_json",
    "potential_to_json",
]

__version__ = "0.1.0"

"""Exact-arithmetic toolkit for the (isolated) differential data criterion
over finite fields, with the Artin-Schreier-Witt utilities that connect it to
ramification data."""

from .cartier import Quadruple, cartier, ddc_check
from .construct import construct_small, construct_trace, d9_witnesses
from .criterion import (
    Certificate,
    ResidueData,
    certify,
    certify_data,
    isolation_check,
    power_sum_check,
    reconstruct_f,
    residue_data,
    verify_certificate_json,
)
from .errors import DdcritError
from .gf import (
    FieldElement,
    FieldSpec,
    make_field,
    root_of_unity,
)
from .planner import (
    RadiiReport,
    lifting_radii,
    profile_steps,
    profiles_for_group,
    quadruple_for_step,
    quadruples_for_group,
    step_radii,
)
from .poly import (
    LaurentPoly,
    Poly,
    mu_m_orbit_reps,
    orbit_reps_in_splitting_field,
    roots_in_splitting_field,
)
from .search import (
    GroupSearchResult,
    NotFound,
    brute_search,
    first_witness,
    search_group,
)
from .witt import (
    JumpProfile,
    WittVector,
    different_degree,
    frobenius,
    gamma_congruence,
    kgb_vanishes,
    reduce_jumps,
    standard_form,
    upper_breaks,
    witt_add,
    witt_neg,
    witt_sum_polys,
    wp,
)

__version__ = "0.3.9"

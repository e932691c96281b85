"""Exact piecewise-linear calculus with certified topological-entropy bounds.

The package builds, on exact rational arithmetic:

* a piecewise-linear function calculus with constant extension to the line
  (:mod:`entropy_banach.plmap`);
* certified entropy brackets from lap growth, horseshoe certificates and
  covering matrices (:mod:`entropy_banach.entropy`);
* horseshoes from linearly independent function families and the matching
  sharpness examples (:mod:`entropy_banach.spaces`);
* a norm-preserving multiscale embedding whose nonzero images carry
  horseshoes of every order (:mod:`entropy_banach.universal`);
* an isometric sum-norm function system with a staged witness of unbounded
  entropy (:mod:`entropy_banach.ellone`);
* a one-parameter map family whose nonzero multiples share a single dialed
  entropy value (:mod:`entropy_banach.dial`).
"""

__version__ = "0.1.0"

from .plmap import (  # noqa: F401
    IntervalQ,
    PLMap,
    compose,
    crop,
    eval_at,
    even_extension,
    image_intervals,
    lap_count,
    linear_combination,
    make_pl,
    oscillation,
    sample_pl,
    scale,
    sup_norm,
)
from .entropy import (  # noqa: F401
    EntropyBounds,
    HorseshoeCertificate,
    certify,
    entropy_bounds,
    entropy_lower_markov,
    entropy_upper_lap,
    horseshoe_max,
    invariant_restriction,
    validate_certificate,
)
from .spaces import (  # noqa: F401
    FunctionFamily,
    IndependencePoints,
    cropped_polynomial,
    horseshoe_combination,
    independent_points,
    sin_scaled,
)
from .universal import (  # noqa: F401
    ScaleSchedule,
    geometric_schedule,
    hoelder_schedule,
    psi,
    psi_horseshoe,
)
from .ellone import (  # noqa: F401
    GammaSchedule,
    RademacherModel,
    SignMatrix,
    WitnessReport,
    build_An,
    build_rademacher,
    ell1_witness,
    gamma_schedule,
    sign_point,
    solve_An,
)
from .dial import (  # noqa: F401
    DialConfig,
    LambdaEnumeration,
    build_dial_map,
    dial_entropy_check,
    find_a_star,
    r_of_a,
    rational_enumeration,
    theta,
)

"""Offset linear canonical transform with uncertainty-bound verification.

The package is organized around six layers:

* :mod:`olct.signals` — grids, sampled/analytic signals, quadrature and
  differentiation;
* :mod:`olct.transform` — the six-parameter transform, its inverse, and the
  energy-conservation check;
* :mod:`olct.moments` — weighted time/spectral moments and the
  spectral-moment identity;
* :mod:`olct.bounds` — the bound functional, its sharpening, closed forms,
  and identity validators;
* :mod:`olct.verify` — end-to-end inequality reports and parameter sweeps;
* :mod:`olct.cli` — the command-line frontend.
"""

from .errors import NumericsError
from .signals import (
    AnalyticSignal,
    Grid,
    SampledSignal,
    WeightFunction,
    derivative,
    energy,
    exp_quadratic,
    exp_weight,
    gaussian_chirp,
    inner_product,
    integrate,
    make_grid,
    norm_l2,
    quadrature_weights,
    unit_weight,
)
from .transform import (
    OlctParams,
    Spectrum,
    default_xi_grid,
    frft_params,
    ft_params,
    lct_params,
    olct_forward,
    olct_forward_b0,
    olct_inverse,
    olct_kernel,
    parseval_gap,
)
from .moments import (
    PprResult,
    abs_moment_p,
    chirp_demodulate,
    demodulation_freq,
    ppr_check,
    spectral_moment_2p,
    time_moment_2p,
)
from .bounds import (
    BoundBreakdown,
    HpwConfig,
    IdentityFit,
    OrderTerm,
    bound_gap_factor,
    check_identity1,
    check_identity2,
    default_unit_gaussian,
    derivative_product_coeff,
    derived_sign,
    gram_offset,
    hpw_core,
    hpw_rhs,
    hw_rhs,
    modulation_cross_coeff,
    modulation_square_coeff,
    moment_pair,
    reference_bound_closed_form,
    saturating_gram_term,
    second_order_core_closed_form,
    sharpened_bound_closed_form,
    shw_rhs,
    weight_deriv_centered,
)
from .verify import (
    REPORT_COLUMNS,
    SweepRow,
    UncertaintyReport,
    family_grid,
    minimizer_signal,
    report_to_dict,
    report_to_json,
    reports_to_csv,
    sweep_r,
    verify_hpw,
    verify_hw,
    verify_shw,
)

__version__ = "0.1.0"

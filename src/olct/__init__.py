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

The package namespace holds the names that the quick start, the acceptance
criteria and the benchmark use; every other name lives in its module.
"""

from .errors import NumericsError
from .signals import (
    SampledSignal,
    exp_weight,
    gaussian_chirp,
    make_grid,
    unit_weight,
)
from .transform import (
    OlctParams,
    default_xi_grid,
    ft_params,
    olct_forward,
    parseval_gap,
)
from .moments import ppr_check
from .bounds import (
    HpwConfig,
    bound_gap_factor,
    check_identity1,
    check_identity2,
    hpw_core,
    reference_bound_closed_form,
    second_order_core_closed_form,
    sharpened_bound_closed_form,
)
from .verify import (
    REPORT_COLUMNS,
    minimizer_signal,
    report_to_json,
    reports_to_csv,
    sweep_r,
    verify_hpw,
    verify_hw,
    verify_shw,
)

__version__ = "0.1.0"

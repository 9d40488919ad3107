"""Numerical laboratory for a magnetically coupled piezoelectric beam
system with nonlinear damping and polynomial source terms."""

from .blowup import (BlowupReport, blowup_report, monitor,
                     theorem210_threshold, tmax_upper_bound, varpi_range)
from .config import (RunConfig, SweepConfig, expand_sweep, load_run_config,
                     load_sweep_config)
from .decay import (DecayFit, eta_from_exponents, fit_exponential,
                    fit_logarithmic, fit_polynomial, select_model)
from .diagnostics import (CSV_FIELDS, EnergyRecord, Nprime_of,
                          damping_norms, make_record, sign_functional,
                          source_norms, total_energy)
from .errors import (AssumptionViolated, BoundInapplicable, ConfigParse,
                     DeltaOutOfRange, InvalidArgument, NoConvergence,
                     NonPositiveAlpha1, NonPositiveParameter,
                     NonPositiveSeries, NotBlowupRegime, PiezowaveError,
                     ZeroState)
from .grid import (Grid1D, State, sine_modes, state_from_modes, zero_state)
from .integrator import StepConfig, Stepper, Trajectory, simulate
from .params import (Exponents, MaterialParams, make_params,
                     validate_exponents)
from .well import (WellReport, c_hat_constant, check_delta, classify_initial,
                   embedding_constant, nehari_lambda_star, poincare_constant,
                   s_star_solve, well_report, y0_and_threshold)

__version__ = "0.1.0"

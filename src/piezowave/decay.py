"""Decay-envelope fitting for recorded total-energy series.

Three envelope families, matching the three damping regimes:

    exponential   E(0) * exp(1 - omega t)                (m1 = m2 = 1)
    polynomial    E(0) * ((1+eta)/(1 + omega eta t))^(1/eta)
    logarithmic   same shape in psi(t) = ln((C+t)/C)

eta = max{(m1-1)/2, (m2-1)/2} is fixed by the exponents and never fitted;
omega is the single free rate.  The polynomial and logarithmic shapes
linearize exactly as E^(-eta) affine in t (resp. psi), so both reduce to a
least-squares line; omega is recovered from slope/intercept.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NonPositiveSeries
from .params import Exponents

@dataclass
class DecayFit:
    model: str
    omega: float
    eta: float
    rmse: float          # residual of log E against the fitted shape
    tail_start: int      # first sample index used by the regression
    envelope_ok: bool    # envelope >= series at every sample (1 + 1e-9 slack)
    accepted: bool       # omega > 0 and envelope_ok

    def as_dict(self) -> dict:
        return asdict(self)


def eta_from_exponents(exps: Exponents) -> float:
    return max((exps.m1 - 1.0) / 2.0, (exps.m2 - 1.0) / 2.0)


def _validate(times, values):
    """The series as arrays, and the regression tail's first index."""
    t = np.asarray(times, dtype=float)
    e = np.asarray(values, dtype=float)
    if t.shape != e.shape or t.ndim != 1 or t.size < 4:
        raise ValueError("need matching 1D series with at least 4 samples")
    if not np.all((e > 0.0) & (e < np.inf)):     # NaN fails too
        raise NonPositiveSeries("energy series must be finite and > 0")
    return t, e, t.size // 2      # the tail is the second half


def _lstsq_line(x, y):
    a = np.vstack([np.ones_like(x), x]).T
    (intercept, slope), *_ = np.linalg.lstsq(a, y, rcond=None)
    return intercept, slope


ENVELOPE_SLACK = 1.0 + 1e-9


def fit_exponential(times, values) -> DecayFit:
    """Least squares on log E vs t; envelope E(0) e^(1 - omega t)."""
    t, e, k0 = _validate(times, values)
    intercept, slope = _lstsq_line(t[k0:], np.log(e[k0:]))
    omega = -slope
    env = e[0] * np.exp(1.0 - omega * t)
    envelope_ok = bool(np.all(e <= env * ENVELOPE_SLACK))
    pred = intercept + slope * t[k0:]
    rmse = float(np.sqrt(np.mean((np.log(e[k0:]) - pred) ** 2)))
    accepted = bool(omega * (t[-1] - t[0]) > 1e-10 and envelope_ok)
    return DecayFit("exponential", float(omega), 0.0, rmse, k0,
                    envelope_ok, accepted)


def _power_fit(t, e, eta, x, model, k0):
    """Shared core: E^(-eta) affine in the regressor x."""
    intercept, slope = _lstsq_line(x[k0:], e[k0:] ** (-eta))
    if intercept <= 0.0 or slope <= 0.0:
        omega = 0.0
    else:
        omega = slope / (intercept * eta)
    # envelope with the series' own E(0) anchoring
    base = (1.0 + omega * eta * x) / (1.0 + eta)
    with np.errstate(over="ignore"):
        env = np.where(base > 0.0, e[0] * base ** (-1.0 / eta), np.inf)
    envelope_ok = bool(np.all(e <= env * ENVELOPE_SLACK))
    pred = intercept + slope * x[k0:]
    good = pred > 0.0
    if np.all(good):
        rmse = float(np.sqrt(np.mean(
            (np.log(e[k0:]) + np.log(pred) / eta) ** 2)))
    else:
        rmse = np.inf
    return DecayFit(model, float(omega), float(eta), rmse, k0,
                    envelope_ok, bool(omega > 0.0 and envelope_ok))


def fit_polynomial(times, values, eta) -> DecayFit:
    """Linear regression of E^(-eta) vs t; eta must be positive."""
    if not eta > 0.0:
        raise ValueError("eta must be > 0 for the polynomial envelope")
    t, e, k0 = _validate(times, values)
    return _power_fit(t, e, eta, t, "polynomial", k0)


def fit_logarithmic(times, values, eta, C) -> DecayFit:
    """Regression of E^(-eta) vs psi(t) = ln((C+t)/C), C >= 1."""
    if not eta > 0.0:
        raise ValueError("eta must be > 0 for the logarithmic envelope")
    if not C >= 1.0:
        raise ValueError("C must be >= 1")
    t, e, k0 = _validate(times, values)
    return _power_fit(t, e, eta, np.log((C + t) / C), "logarithmic", k0)


# Model name, as written in configs and on the command line -> fit of
# (times, values, eta, C).  The fit functions are looked up when called, so
# a rebound module attribute takes effect.
FITS = {
    "exp": lambda t, e, eta, C: fit_exponential(t, e),
    "poly": lambda t, e, eta, C: fit_polynomial(t, e, eta),
    "log": lambda t, e, eta, C: fit_logarithmic(t, e, eta, C),
}


def select_model(times, values, eta, C=2.0) -> DecayFit:
    """Fit every applicable family and keep the lowest log-scale rmse.

    The exponential family only applies when eta = 0; the other two only
    when eta > 0, so at most one shape degenerates into another.
    """
    fits = []
    if eta == 0.0:
        fits.append(fit_exponential(times, values))
        # an eta = 0 series can still be probed with a nominal eta = 1
        fits.append(fit_polynomial(times, values, 1.0))
        fits.append(fit_logarithmic(times, values, 1.0, C))
    else:
        fits.append(fit_polynomial(times, values, eta))
        fits.append(fit_logarithmic(times, values, eta, C))
    return min(fits, key=lambda f: f.rmse)

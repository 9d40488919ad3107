"""Blow-up functionals, admissible auxiliary exponents, thresholds, and the
concavity-method upper bound on the blow-up time.

G(t) = -Etot(t) grows on negative-energy trajectories; N(t) is half the
weighted squared displacement norm and N'(t) its exact derivative.  The
auxiliary functional Y = G^(1-varpi) + eps*N' must stay positive and
increasing on a blow-up run.  For linear damping (m1 = m2 = 1) a concavity
argument yields an explicit finite upper bound on the blow-up time.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

# N_of is not used here; blowup re-exports it next to Nprime_of
from .diagnostics import N_of, Nprime_of, total_energy
from .errors import BoundInapplicable, NotBlowupRegime
from .grid import Grid1D, State, l2_norm_sq
from .params import Exponents, MaterialParams

CONVENTIONS = ("paper-literal", "poincare-consistent")
TAU_MARGIN_REL = 1e-6
# Relative slack of the monotonicity checks on G and Y between records.
MONOTONE_TOL = 1e-11


def G_of(record) -> float:
    """G = -Etot from an energy record."""
    return -record.Etot


def varpi_range(exps: Exponents, varpi: Optional[float] = None):
    """Open admissible interval (0, varpi_max) and sigma at a chosen varpi.

    varpi defaults to varpi_max / 2.  sigma_i = 1 - 2/((1-2 varpi)(n_i+1)),
    sigma = max of the two.
    """
    if not exps.blowup_regime:
        raise NotBlowupRegime(
            f"need n_i > m_i with n_i, m_i < 5; got m=({exps.m1},{exps.m2}), "
            f"n=({exps.n1},{exps.n2})")
    varpi_max = min(
        1.0 / (exps.m1 + 1.0) - 1.0 / (exps.n1 + 1.0),
        1.0 / (exps.m2 + 1.0) - 1.0 / (exps.n2 + 1.0),
        (exps.n1 - 1.0) / (2.0 * (exps.n1 + 1.0)),
        (exps.n2 - 1.0) / (2.0 * (exps.n2 + 1.0)),
    )
    if varpi is None:
        varpi = varpi_max / 2.0
    sigma = max(1.0 - 2.0 / ((1.0 - 2.0 * varpi) * (exps.n1 + 1.0)),
                1.0 - 2.0 / ((1.0 - 2.0 * varpi) * (exps.n2 + 1.0)))
    return varpi_max, varpi, sigma


@dataclass
class BlowupReport:
    detected: bool
    t_detect: Optional[float]
    trigger: Optional[str]
    kappa: Optional[float] = None
    tau: Optional[float] = None
    tmax_bound: Optional[float] = None
    criterion: Optional[str] = None
    G_monotone_ok: Optional[bool] = None
    Y_positive_increasing: Optional[bool] = None

    def as_dict(self) -> dict:
        return asdict(self)


def monitor(trajectory, exps: Exponents,
            params: MaterialParams) -> BlowupReport:
    """Check G monotonicity and the auxiliary functional Y on a finished run.

    Active only when the run starts at negative total energy (G(0) > 0);
    otherwise the monotonicity flags are left None.
    """
    recs = trajectory.records
    g = np.array([-r.Etot for r in recs])
    detected = trajectory.outcome == "blowup"
    report = BlowupReport(detected=detected, t_detect=trajectory.t_detect,
                          trigger=trajectory.trigger)
    if g[0] <= 0.0:
        return report
    scale = 1.0 + np.max(np.abs(g))
    report.G_monotone_ok = bool(np.all(np.diff(g) >= -MONOTONE_TOL * scale))
    report.criterion = "negative-energy"
    if exps.blowup_regime:
        _, varpi, _ = varpi_range(exps)
        nprime = np.array([r.nprime for r in recs])
        eps = min(1.0, g[0])
        if nprime[0] < 0.0:
            eps = min(eps, -g[0] ** (1.0 - varpi) / (2.0 * nprime[0]))
        y = g ** (1.0 - varpi) + eps * nprime
        report.Y_positive_increasing = bool(
            np.all(y > 0.0)
            and np.all(np.diff(y) >= -MONOTONE_TOL * (1.0 + np.max(y))))
    return report


def _threshold_pieces(state0: State, params: MaterialParams,
                      exps: Exponents, grid: Grid1D, poincare_c: float,
                      convention: str):
    """Shared inputs of the threshold and the bound, which both need linear
    damping: (Mfac, cfac, ||v0||^2, ||p0||^2, E0)."""
    if not (exps.m1 == 1.0 and exps.m2 == 1.0):
        raise BoundInapplicable("threshold and bound require m1 = m2 = 1")
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}")
    cfac = poincare_c ** 2 if convention == "paper-literal" \
        else 1.0 / poincare_c ** 2
    vsq = l2_norm_sq(state0.v, grid)
    psq = l2_norm_sq(state0.p, grid)
    e0 = total_energy(state0, params, exps, grid)
    return params.M, cfac, vsq, psq, e0


def theorem210_threshold(state0: State, params: MaterialParams,
                         exps: Exponents, grid: Grid1D, poincare_c: float,
                         convention: str = "poincare-consistent") -> dict:
    """Initial-energy smallness condition of the concavity bound.

    threshold = (c-2)/(2c) * (1/Mfac) * cfac * min{1/rho, 1/mu}
                * (||v0||^2 + ||p0||^2)
    with cfac the square of the Poincare constant ("paper-literal") or its
    reciprocal ("poincare-consistent", default).  Requires m1 = m2 = 1.
    """
    mfac, cfac, vsq, psq, e0 = _threshold_pieces(state0, params, exps, grid,
                                                 poincare_c, convention)
    c = exps.c_hat
    rhs = ((c - 2.0) / (2.0 * c) / mfac * cfac
           * min(1.0 / params.rho, 1.0 / params.mu) * (vsq + psq))
    return {"satisfied": bool(e0 <= rhs), "bound_value": rhs, "E0": e0,
            "convention": convention}


def tmax_upper_bound(state0: State, params: MaterialParams, exps: Exponents,
                     grid: Grid1D, poincare_c: float,
                     convention: str = "poincare-consistent"):
    """Concavity-method upper bound on the blow-up time (m1 = m2 = 1).

    Returns (kappa, tau, bound).  kappa > 0 encodes the energy smallness
    condition; tau shifts time so the concave auxiliary has positive slope
    at zero; the final expression requires a positive denominator.
    """
    mfac, cfac, vsq, psq, e0 = _threshold_pieces(state0, params, exps, grid,
                                                 poincare_c, convention)
    c = exps.c_hat
    kappa = (1.0 / c) * (-2.0 * c * e0
                         + (c - 2.0) / mfac * cfac
                         * min(1.0 / params.rho, 1.0 / params.mu)
                         * (vsq + psq))
    # written so that a NaN kappa or denominator is inapplicable too
    if not kappa > 0.0:
        raise BoundInapplicable(f"kappa = {kappa:.6g} is not > 0: "
                                "energy condition not met")
    cross = Nprime_of(state0, params, grid)
    tau_min = max(0.0, (2.0 * (vsq + psq) - (c - 2.0) * cross)
                  / ((c - 2.0) * kappa))
    tau = tau_min + TAU_MARGIN_REL * (1.0 + abs(tau_min))
    numer = 2.0 * (params.rho * vsq + params.mu * psq + kappa * tau ** 2)
    denom = (c - 2.0) * (cross + kappa * tau) - 2.0 * (vsq + psq)
    if not denom > 0.0:
        raise BoundInapplicable(f"denominator = {denom:.6g} is not > 0")
    return kappa, tau, numer / denom


def blowup_report(trajectory, state0: State, params: MaterialParams,
                  exps: Exponents, grid: Grid1D,
                  poincare_c: Optional[float] = None) -> BlowupReport:
    """Monitor a trajectory and, when applicable, attach the time bound."""
    report = monitor(trajectory, exps, params)
    if poincare_c is not None:
        try:
            kappa, tau, bound = tmax_upper_bound(
                state0, params, exps, grid, poincare_c)
        except BoundInapplicable:
            pass
        else:
            report.kappa = kappa
            report.tau = tau
            report.tmax_bound = bound
            if report.criterion is None:
                report.criterion = "concavity-bound"
    return report

"""Potential-well geometry: embedding constants, the barrier function
Lambda, the thresholds derived from it, and classification of initial data.

All scalar roots in this module are simple roots of monotone functions, so
plain bisection driven to relative 1e-15 is both robust and cheap.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .diagnostics import make_record, source_norms
from .errors import DeltaOutOfRange, NoConvergence, ZeroState
from .grid import (Grid1D, State, grad_norm_sq, lp_norm_pow, quadratic_form,
                   sine_modes, stiffness_solver)
from .params import Exponents, MaterialParams

# ---------------------------------------------------------------------------
# discrete constants of the grid

def _embedding_quotient(u: np.ndarray, q: float, grid: Grid1D) -> float:
    gn = grad_norm_sq(u, grid)
    if gn == 0.0:
        return 0.0
    return lp_norm_pow(u, q, grid) / gn ** (q / 2.0)


def embedding_constant(grid: Grid1D, q: float, restarts: int = 16,
                       iters: int = 500, seed: int = 0) -> float:
    """Best discrete constant B = sup ||u||_q^q / ||grad u||_2^q, u(0) = 0.

    Generalized power method on the unit gradient sphere u^T K u = 1 from
    random smooth starts.  The step u <- K^{-1} grad F(u), normalized,
    maximizes <grad F(u_k), u> on the sphere, and F(u) = ||u||_q^q is
    convex, so F(u_{k+1}) >= F(u_k) + <grad F(u_k), u_{k+1} - u_k> >= F(u_k):
    the quotient rises at every step, with no step size to control.
    Projected-gradient ascent is this step with a finite step length.  At
    q = 2 it is inverse iteration for K u = lambda W u.  The best value over
    all restarts is a certified lower bound on the discrete supremum.
    """
    if not 2.0 <= q < 7.0:
        raise ValueError(f"q = {q} outside the supported range [2, 7)")
    rng = np.random.default_rng(seed)
    solve = stiffness_solver(grid)
    best = 0.0
    for _ in range(restarts):
        # smooth random start: a few low modes plus a ramp
        u = grid.nodes / grid.L + sine_modes(grid, rng.standard_normal(4))
        u[0] = 0.0
        val = _embedding_quotient(u, q, grid)
        for _ in range(iters):
            u[1:] = solve(np.abs(u) ** (q - 1.0) * np.sign(u))
            # renormalize: u would otherwise scale like |u|^(q-1) and overflow
            u /= np.sqrt(grad_norm_sq(u, grid))
            new = _embedding_quotient(u, q, grid)
            if not new > val * (1.0 + 1e-15):
                break
            val = new
        best = max(best, val)
    return best


def poincare_constant(grid: Grid1D) -> float:
    """Best constant c with ||u||_2 <= c ||u_x||_2 for grid functions u(0)=0.

    c = 1/sqrt(lambda_min) of the generalized eigenproblem K u = lambda W u
    on the free nodes (K the gradient stiffness, W the trapezoid mass), so
    c^2 is the embedding constant at q = 2."""
    return float(np.sqrt(embedding_constant(grid, 2.0)))


def c_hat_constant(b1: float, b2: float, params: MaterialParams,
                   n1: float, n2: float) -> float:
    """C_hat = max{B1 M^((n1+1)/2), B2 M^((n2+1)/2)}, M = params.M."""
    m = params.M
    return max(b1 * m ** ((n1 + 1.0) / 2.0), b2 * m ** ((n2 + 1.0) / 2.0))


# ---------------------------------------------------------------------------
# scalar barrier analysis

def lambda_fn(s, c_hat_const: float, n1: float, n2: float):
    """Lambda(s) = s/2 - C s^((n1+1)/2)/(n1+1) - C s^((n2+1)/2)/(n2+1)."""
    s = np.asarray(s, dtype=float)
    return (0.5 * s
            - c_hat_const * s ** ((n1 + 1.0) / 2.0) / (n1 + 1.0)
            - c_hat_const * s ** ((n2 + 1.0) / 2.0) / (n2 + 1.0))


def lambda_prime(s, c_hat_const: float, n1: float, n2: float):
    s = np.asarray(s, dtype=float)
    return 0.5 - 0.5 * c_hat_const * (s ** ((n1 - 1.0) / 2.0)
                                      + s ** ((n2 - 1.0) / 2.0))


def _bisect_increasing(f, rel_tol=1e-15, max_iter=200):
    """Positive root of increasing f with f(0) < 0.  The upper end of the
    bracket doubles from 1 until f(hi) >= 0; the lower end is 0."""
    lo, hi = 0.0, 1.0
    while f(hi) < 0.0:
        hi *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * hi:
            break
    return 0.5 * (lo + hi)


def s_star_solve(c_hat_const: float, n1: float, n2: float):
    """Unique positive zero s* of Lambda', and the barrier height Lambda(s*)."""
    if c_hat_const <= 0 or n1 <= 1 or n2 <= 1:
        raise ValueError("need C_hat > 0 and n1, n2 > 1")
    s_star = _bisect_increasing(
        lambda s: -lambda_prime(s, c_hat_const, n1, n2))
    resid = abs(lambda_prime(s_star, c_hat_const, n1, n2))
    if resid > 1e-12:
        raise NoConvergence(f"Lambda'(s*) = {resid:.3g} > 1e-12")
    return s_star, float(lambda_fn(s_star, c_hat_const, n1, n2))


def y0_and_threshold(c_hat_const: float, n1: float, n2: float, c_hat: float):
    """y0 solving C(2y)^((n1-1)/2) + C(2y)^((n2-1)/2) = 1, i.e.
    Lambda'(2 y0) = 0 and y0 = s*/2, and the blow-up energy threshold
    M = (c-2) y0 / (2(2+c))."""
    return _y0_and_threshold(s_star_solve(c_hat_const, n1, n2)[0], c_hat)


def _y0_and_threshold(s_star: float, c_hat: float):
    y0 = s_star / 2.0
    return y0, (c_hat - 2.0) / (2.0 * (2.0 + c_hat)) * y0


def nehari_lambda_star(state: State, params: MaterialParams, exps: Exponents,
                       grid: Grid1D):
    """Scaling lambda* > 0 putting (lambda v, lambda p) on the Nehari set.

    Returns (lambda*, J at the maximum).  The ray potential
    phi(l) = l^2 Q/2 - l^(n1+1) a/(n1+1) - l^(n2+1) b/(n2+1) has a unique
    interior maximum; phi'' < 0 there is re-checked.
    """
    q = quadratic_form(state.v, state.p, grid, params)
    a, b = source_norms(state, exps, grid)
    if q <= 0.0 or a + b <= 0.0:
        raise ZeroState("Nehari projection needs a nonzero displacement pair")
    n1, n2 = exps.n1, exps.n2

    # Q = l^(n1-1) a + l^(n2-1) b, RHS increasing from 0
    def h(l):
        return l ** (n1 - 1.0) * a + l ** (n2 - 1.0) * b - q

    lam = _bisect_increasing(h)
    phi = (0.5 * lam ** 2 * q - lam ** (n1 + 1.0) * a / (n1 + 1.0)
           - lam ** (n2 + 1.0) * b / (n2 + 1.0))
    phi2 = q - n1 * lam ** (n1 - 1.0) * a - n2 * lam ** (n2 - 1.0) * b
    if not phi2 < 0.0:
        raise NoConvergence(f"phi''(lambda*) = {phi2:.3g} not negative")
    return lam, phi


def check_delta(delta: float, s_star: float, c_hat_const: float,
                n1: float, n2: float) -> dict:
    """Admissibility of the margin delta for the decay estimates.

    C_tilde(delta) = C[(s*-d)^((n1-1)/2) + (s*-d)^((n2-1)/2)]; delta is
    admissible when C_tilde times the exponent-asymmetry factor stays
    below 1.  Also reports the resulting absorption constant C(delta).
    """
    if not 0.0 < delta < s_star:
        raise DeltaOutOfRange(f"delta = {delta} not in (0, {s_star:.6g})")
    s = s_star - delta
    c_tilde = c_hat_const * (s ** ((n1 - 1.0) / 2.0) + s ** ((n2 - 1.0) / 2.0))
    factor = max((n2 + 1.0) * (n1 - 1.0) / ((n2 - 1.0) * (n1 + 1.0)),
                 (n1 + 1.0) * (n2 - 1.0) / ((n1 - 1.0) * (n2 + 1.0)))
    c_hat = min(n1 + 1.0, n2 + 1.0)
    c_delta = (2.0 * c_hat / (c_hat - 2.0)) * c_hat_const * (
        (0.5 - 1.0 / (n1 + 1.0)) * s ** ((n1 - 1.0) / 2.0)
        + (0.5 - 1.0 / (n2 + 1.0)) * s ** ((n2 - 1.0) / 2.0))
    return {"admissible": bool(c_tilde * factor < 1.0),
            "C_tilde": c_tilde, "C_delta": c_delta}


# ---------------------------------------------------------------------------
# report and classification

@dataclass
class WellReport:
    B1: float
    B2: float
    C_hat: float
    s_star: float
    Lambda_star: float
    y0: float
    M_threshold: float
    poincare_c: float
    classification: Optional[str] = None

    def as_dict(self) -> dict:
        return asdict(self)


def well_report(params: MaterialParams, exps: Exponents, grid: Grid1D,
                seed: int = 0) -> WellReport:
    b1 = embedding_constant(grid, exps.n1 + 1.0, seed=seed)
    b2 = embedding_constant(grid, exps.n2 + 1.0, seed=seed + 1)
    chat = c_hat_constant(b1, b2, params, exps.n1, exps.n2)
    s_star, lam_star = s_star_solve(chat, exps.n1, exps.n2)
    y0, m_thr = _y0_and_threshold(s_star, exps.c_hat)
    return WellReport(B1=b1, B2=b2, C_hat=chat, s_star=s_star,
                      Lambda_star=lam_star, y0=y0, M_threshold=m_thr,
                      poincare_c=poincare_constant(grid))


def classify_initial(state0: State, report: WellReport,
                     params: MaterialParams, exps: Exponents,
                     grid: Grid1D) -> str:
    """Predict the fate of initial data from the scalar thresholds.

    global-predicted           stable side with energy under the barrier
    blowup-predicted           unstable side with 0 <= energy < M threshold
    blowup-predicted-negative  negative initial energy
    indeterminate              none of the hypotheses hold, or the data lie
                               on the Nehari set (well side 'boundary')
    """
    record = make_record(state0, params, exps, grid, 0.0, 0.0)
    e0 = record.Etot
    if e0 < 0.0:
        return "blowup-predicted-negative"
    side = record.well_side
    if side == "W1-side" and e0 < report.Lambda_star:
        return "global-predicted"
    if side == "W2-side" and e0 < report.M_threshold:
        return "blowup-predicted"
    return "indeterminate"

"""Time integration with a dissipation-consistent splitting.

One step is a Strang sandwich

    damping half-step | conservative full step | damping half-step

where the damping substeps solve the pointwise monotone update exactly
(midpoint form, so each substep strictly dissipates the kinetic norm) and
the conservative substep is the implicit midpoint rule for the linear
stiffness.  Source terms are evaluated at the step-start displacement by
default ("semi-implicit"); the "implicit-midpoint" scheme iterates the
sources to the midpoint displacement.

A step works on a State's stacked (4, nx) array y: displacements y[:2],
velocities y[2:], and (rho, mu) as a (2, 1) column.  Each operation covers
both rows at once, and goes row by row only where the exponents differ.

The damping root has a closed form, exact to roundoff, for m in {1, 2, 3},
and a per-entry Newton solve otherwise.  The conservative solve is one
block-diagonal tridiagonal solve in the eigenbasis of the 2x2 coupling
matrix (see `Stepper._factorize`), an exact change of variables.

With sources and damping disabled the conservative substep preserves the
discrete quadratic energy exactly (up to the direct linear solve), which
is what makes the conservation sanity checks meaningful.

A non-finite state is a blow-up outcome, so `simulate` and `Stepper.step`
let numpy overflow quietly and leave the decision to the blow-up check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import QUIET, damping_norms, make_record, total_energy
from .errors import BlowupDetected, InvalidArgument, NoConvergence
from .grid import (Grid1D, State, grad_norm_sq, quadratic_form,
                   second_difference, tridiagonal_solver)
from .params import Exponents, MaterialParams

SCHEMES = ("semi-implicit", "implicit-midpoint")

# Relative tolerance and iteration budget of the damping Newton solve and
# of the implicit-midpoint source iteration.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60

# Longest run a config may ask for: about 3 days at 250 us per step.
MAX_STEPS = 10**9


@dataclass
class StepConfig:
    dt: float
    scheme: str = "semi-implicit"
    blowup_cutoff: float = 1e6
    damping_on: bool = True
    sources_on: bool = True

    def __post_init__(self):
        # dt^2 enters the midpoint matrix
        if not (self.dt > 0 and self.dt * self.dt < math.inf):
            raise InvalidArgument(f"dt = {self.dt} must be > 0 with a "
                                  "finite square")
        if self.scheme not in SCHEMES:
            raise InvalidArgument(f"scheme must be one of {SCHEMES}")
        # written so that NaN is rejected too; inf is allowed
        if not self.blowup_cutoff > 0:
            raise InvalidArgument(f"blowup_cutoff = {self.blowup_cutoff} "
                                  "must be > 0")


def cfl_dt(grid: Grid1D, params: MaterialParams, safety: float = 0.4) -> float:
    """Accuracy guidance dt = safety * dx / c_wave (not enforced)."""
    c_wave = np.sqrt(max(params.alpha / params.rho, params.beta / params.mu))
    return safety * grid.dx / c_wave


def _damping_solve_vec(r, a, m):
    """Solve x + a|x|^(m-1)x = r on a float array r for a >= 0, m >= 1.

    m = 1, 2, 3 have closed forms, exact to roundoff, that also take a
    positive column a of per-row coefficients.  For m = 3 the hyperbolic
    form of the cubic's one real root (Nickalls 1993) is free of the
    cancellation that Cardano's formula suffers at small a.  Other m go to
    `_damping_newton`.
    """
    if np.ndim(a) == 0 and a == 0.0:
        return r.copy()
    if m == 1.0:
        return r / (1.0 + a)
    if m == 2.0:
        # 2r / (1 + sqrt(1 + 4a|r|)) scaled by 1/2, which is exact and
        # keeps 2r from overflowing
        return r / (0.5 + np.sqrt(0.25 + a * np.abs(r)))
    if m == 3.0:
        k = np.sqrt(3.0 * a)
        ar = np.abs(r)
        x = (2.0 / k) * np.sinh(np.arcsinh(1.5 * k * ar) / 3.0)
        # the root has |x| <= |r|, which roundoff can miss by an ulp
        return np.copysign(np.minimum(x, ar), r)
    return _damping_newton(r, a, m)


def _damping_newton(r: np.ndarray, a, m):
    """Newton solve of x + a|x|^(m-1)x = r from r/(1+a), well behaved
    since phi'(x) >= 1.  Each entry stops on its own residual, so its
    result does not depend on the other entries.  A bisection sweep
    finishes off any stragglers."""
    def phi(x, r):     # the residual, and |x|^(m-1) for Newton's phi'
        power = np.abs(x) ** (m - 1.0)
        return x + a * power * x - r, power

    rf = r.ravel()
    x = rf / (1.0 + a)
    # the root has the sign of r and |x| <= |r|
    lo, hi = np.minimum(rf, 0.0), np.maximum(rf, 0.0)
    todo = np.arange(rf.size)
    for _ in range(NEWTON_MAX_ITER):
        rt, xt = rf[todo], x[todo]
        res, power = phi(xt, rt)
        busy = np.abs(res) > NEWTON_TOL * (1.0 + np.abs(rt))
        if not busy.any():
            return x.reshape(r.shape)
        todo = todo[busy]
        step = res[busy] / (1.0 + a * m * power[busy])
        x[todo] = np.clip(xt[busy] - step, lo[todo], hi[todo])
    # bisection fallback on [lo, hi] for unconverged entries
    rt, lo, hi = rf[todo], lo[todo], hi[todo]
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        low = phi(mid, rt)[0] < 0.0
        lo = np.where(low, mid, lo)
        hi = np.where(low, hi, mid)
    x[todo] = 0.5 * (lo + hi)
    tol = 1e3 * NEWTON_TOL * (1.0 + np.abs(rt))
    if np.any(np.abs(phi(x[todo], rt)[0]) > tol):
        raise NoConvergence("damping solve did not meet tolerance")
    return x.reshape(r.shape)


def damping_solve(r: float, dt: float, m: float) -> float:
    """Unique root of x + dt*|x|^(m-1)*x = r: exact to roundoff for
    m in {1, 2, 3}, else to NEWTON_TOL relative."""
    if dt <= 0:
        raise InvalidArgument("dt must be > 0")
    if m < 1:
        raise InvalidArgument("m must be >= 1")
    return float(_damping_solve_vec(np.array([r], dtype=float), dt, m)[0])


class Stepper:
    """Caches the factorized midpoint matrix for (grid, params, dt)."""

    def __init__(self, grid: Grid1D, params: MaterialParams, cfg: StepConfig):
        self.grid = grid
        self.params = params
        self.cfg = cfg
        self._mass = np.array([[params.rho], [params.mu]])
        # (dt/4)(1/rho, 1/mu); if one underflows to 0, each row goes alone
        self._damp_coef = (0.25 * cfg.dt) * (1.0 / self._mass)
        self._solve = self._factorize()

    def _factorize(self):
        """Solver of (I - (dt^2/4) A) u = rhs for rhs of shape (2, nx), with
        A = C (x) D2 the block operator
        [(alpha D2 v - gb D2 p)/rho; (beta D2 p - gb D2 v)/mu].

        C = diag(1/rho, 1/mu) S with S = [[alpha, -gb], [-gb, beta]], which
        is SPD (det = beta*alpha1 > 0).  So C = V Lambda V^-1 with
        V = D Q, V^-1 = Q^T D^-1, D = diag(rho, mu)^(-1/2) and
        D S D = Q Lambda Q^T, all real with Lambda > 0.  In the variables
        w = V^-1 u the system splits into (I - (dt^2/4) lambda_k D2) w_k =
        (V^-1 rhs)_k, solved as one block-diagonal tridiagonal system on the
        rows of w laid end to end."""
        pr = self.params
        gb = pr.gamma * pr.beta
        d = 1.0 / np.sqrt(np.array([pr.rho, pr.mu]))

        def check_finite(*arrays):
            if not all(np.all(np.isfinite(x)) for x in arrays):
                raise InvalidArgument("midpoint matrix I - (dt^2/4) A "
                                      "overflows: material constants, dt or "
                                      "dx out of range")

        with np.errstate(**QUIET):
            dsd = d[:, None] * np.array([[pr.alpha, -gb], [-gb, pr.beta]]) * d
            check_finite(dsd)
            lam, q = np.linalg.eigh(dsd)
            # the bands of -(dt^2/4) (lambda_k D2), with lambda_k D2 (A in
            # the eigenbasis) formed first, so that its overflow shows
            c = self.cfg.dt ** 2 / 4.0
            lo, mid, up = (-c * (lam[:, None] * band)
                           for band in second_difference(self.grid))
        check_finite(lo, mid, up)
        # the k = 1, 2 systems end to end, joined by zero off-diagonals
        lo, up = (np.append(b, [[0.0], [0.0]], axis=1).ravel()[:-1]
                  for b in (lo, up))
        solve = tridiagonal_solver(lo, 1.0 + mid.ravel(), up)
        v, v_inv = d[:, None] * q, q.T / d
        return lambda rhs: v @ solve((v_inv @ rhs).ravel()).reshape(rhs.shape)

    def _source(self, x, exps: Exponents):
        """|x|^(n-1) x on the displacement rows x, with n = (n1, n2)."""
        if exps.n1 == exps.n2:
            return np.abs(x) ** (exps.n1 - 1.0) * x
        return np.array([np.abs(r) ** (n - 1.0) * r
                         for r, n in zip(x, (exps.n1, exps.n2))])

    def _conservative(self, y, exps: Exponents):
        """The conservative substep from y to a new stacked array."""
        dt = self.cfg.dt
        x, xt = y[:2], y[2:]
        base = x + (0.5 * dt) * xt

        def midpoint(f):
            return self._solve(base + ((dt * dt / 4.0) * f) / self._mass)

        on = self.cfg.sources_on
        xm = midpoint(self._source(x, exps) if on else 0.0)
        # semi-implicit stops at this first iterate; implicit-midpoint
        # iterates the sources to the midpoint, NEWTON_MAX_ITER solves in all
        if on and self.cfg.scheme == "implicit-midpoint":
            for _ in range(NEWTON_MAX_ITER - 1):
                xm_new = midpoint(self._source(xm, exps))
                delta = np.abs(xm_new - xm).max()
                xm = xm_new
                # a NaN delta stops too: the blow-up check ends the run on it
                if not delta > NEWTON_TOL * (1.0 + np.abs(xm[0]).max()):
                    break
            else:
                raise NoConvergence("implicit source iteration stalled")
        out = np.empty_like(y)
        out[:2] = 2.0 * xm - x
        out[2:] = 4.0 * (xm - x) / dt - xt
        return out

    def _damp(self, y, exps: Exponents):
        """Damping half-step of the velocity rows of y, in place; returns y.
        Over h = dt/2 the midpoint update of y' = -c|y|^(m-1)y is 2z - y
        with z + (h/2)c|z|^(m-1)z = y."""
        vel, a = y[2:], self._damp_coef
        if exps.m1 == exps.m2 in (1.0, 2.0, 3.0) and a.all():
            z = _damping_solve_vec(vel, a, exps.m1)
        else:
            z = np.array([_damping_solve_vec(r, ak, m) for r, ak, m
                          in zip(vel, a[:, 0], (exps.m1, exps.m2))])
        y[2:] = 2.0 * z - vel
        return y

    @np.errstate(**QUIET)
    def step(self, state: State, exps: Exponents) -> State:
        cfg = self.cfg
        y = self._damp(state.y.copy(), exps) if cfg.damping_on else state.y
        y = self._conservative(y, exps)
        if cfg.damping_on:
            self._damp(y, exps)
        state = State.stacked(y, state.t + cfg.dt)
        checks = (("grad_v_sq", grad_norm_sq(state.v, self.grid)),
                  ("quadratic_form", quadratic_form(state.v, state.p,
                                                    self.grid, self.params)))
        for trigger, value in checks:
            # written so that a NaN norm (non-finite state) also ends the run
            if not value <= cfg.blowup_cutoff:
                err = BlowupDetected(state.t, trigger, value)
                err.state = state
                raise err
        return state


def step_count(t_end: float, dt: float) -> int:
    """Number of steps of size dt > 0 to t_end, rounded to a whole number,
    at most MAX_STEPS."""
    if not 0.0 <= t_end / dt <= MAX_STEPS:
        raise InvalidArgument(f"t_end / dt = {t_end} / {dt} must be in "
                              f"[0, {MAX_STEPS}]")
    return int(round(t_end / dt))


@dataclass
class Trajectory:
    records: list                # EnergyRecord per recorded step
    outcome: str                 # "completed" or "blowup"
    t_detect: Optional[float]
    trigger: Optional[str]
    final_state: State


@np.errstate(**QUIET)
def simulate(state0: State, params: MaterialParams, exps: Exponents,
             grid: Grid1D, cfg: StepConfig, t_end: float,
             record_every: int = 1) -> Trajectory:
    """Advance to t_end, sampling diagnostics every record_every steps.

    Blow-up detection is a normal terminal outcome, not an error.  Every
    state it records or returns carries t = k*dt after step k, so times do
    not drift by repeated addition.
    """
    n_steps = step_count(t_end, cfg.dt)
    if record_every < 1:
        raise InvalidArgument("record_every must be >= 1")
    stepper = Stepper(grid, params, cfg)

    etot0 = total_energy(state0, params, exps, grid)
    damping_cum = 0.0
    state = State.stacked(state0.y.copy())
    prev_dnorm = sum(damping_norms(state, exps, grid)) if cfg.damping_on else 0.0

    records = [make_record(state, params, exps, grid, damping_cum, etot0)]

    outcome, t_detect, trigger = "completed", None, None
    for k in range(1, n_steps + 1):
        try:
            state = stepper.step(state, exps)
        except BlowupDetected as blow:
            state = blow.state
            outcome, t_detect, trigger = "blowup", k * cfg.dt, blow.trigger
        state.t = k * cfg.dt
        if cfg.damping_on:
            dnorm = sum(damping_norms(state, exps, grid))
            damping_cum += 0.5 * cfg.dt * (prev_dnorm + dnorm)
            prev_dnorm = dnorm
        if k % record_every == 0 or k == n_steps or outcome == "blowup":
            records.append(make_record(state, params, exps, grid,
                                       damping_cum, etot0))
        if outcome == "blowup":
            break
    return Trajectory(records=records, outcome=outcome, t_detect=t_detect,
                      trigger=trigger, final_state=state)

"""Time integration with a dissipation-consistent splitting.

One step is a Strang sandwich

    damping half-step | conservative full step | damping half-step

where the damping substeps solve the pointwise monotone update exactly
(midpoint form, so each substep strictly dissipates the kinetic norm) and
the conservative substep is the implicit midpoint rule for the linear
stiffness.  Source terms are evaluated at the step-start displacement by
default ("semi-implicit"); the "implicit-midpoint" scheme iterates the
sources to the midpoint displacement.

With sources and damping disabled the conservative substep preserves the
discrete quadratic energy exactly (up to the direct linear solve), which
is what makes the conservation sanity checks meaningful.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .diagnostics import damping_norms, make_record, total_energy
from .errors import BlowupDetected, NoConvergence
from .grid import (Grid1D, State, grad_norm_sq, quadratic_form,
                   second_difference)
from .params import Exponents, MaterialParams

SCHEMES = ("semi-implicit", "implicit-midpoint")

# Relative tolerance and iteration budget of the damping Newton solve and
# of the implicit-midpoint source iteration.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60


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
            raise ValueError(f"dt = {self.dt} must be > 0 with a finite "
                             "square")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")


def cfl_dt(grid: Grid1D, params: MaterialParams, safety: float = 0.4) -> float:
    """Accuracy guidance dt = safety * dx / c_wave (not enforced)."""
    c_wave = np.sqrt(max(params.alpha / params.rho, params.beta / params.mu))
    return safety * grid.dx / c_wave


def _damping_solve_vec(r, a, m, tol, max_iter):
    """Solve x + a|x|^(m-1)x = r elementwise for a >= 0, m >= 1.

    phi'(x) >= 1 everywhere, so Newton from r/(1+a) is well behaved; a
    bisection sweep finishes off any stragglers.
    """
    r = np.asarray(r, dtype=float)
    if a == 0.0:
        return r.copy()
    if m == 1.0:
        return r / (1.0 + a)
    x = r / (1.0 + a)
    scale = 1.0 + np.abs(r)
    for _ in range(max_iter):
        ax = np.abs(x)
        phi = x + a * ax ** (m - 1.0) * x - r
        if np.all(np.abs(phi) <= tol * scale):
            return x
        dphi = 1.0 + a * m * ax ** (m - 1.0)
        x = x - phi / dphi
        # the root has the sign of r and |x| <= |r|
        x = np.clip(x, np.minimum(r, 0.0), np.maximum(r, 0.0))
    # bisection fallback on [0, r] (or [r, 0]) for unconverged entries
    lo = np.minimum(r, 0.0)
    hi = np.maximum(r, 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        phi = mid + a * np.abs(mid) ** (m - 1.0) * mid - r
        low = phi < 0.0
        lo = np.where(low, mid, lo)
        hi = np.where(low, hi, mid)
    x = 0.5 * (lo + hi)
    phi = x + a * np.abs(x) ** (m - 1.0) * x - r
    if np.any(np.abs(phi) > 1e3 * tol * scale):
        raise NoConvergence("damping solve did not meet tolerance")
    return x


def damping_solve(r: float, dt: float, m: float,
                  tol: float = 1e-14, max_iter: int = 60) -> float:
    """Unique root of x + dt*|x|^(m-1)*x = r."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if m < 1:
        raise ValueError("m must be >= 1")
    return float(_damping_solve_vec(np.array([r]), dt, m,
                                    tol, max_iter)[0])


class Stepper:
    """Caches the factorized midpoint matrix for (grid, params, dt)."""

    def __init__(self, grid: Grid1D, params: MaterialParams, cfg: StepConfig):
        self.grid = grid
        self.params = params
        self.cfg = cfg
        self._solve = self._factorize()

    def _factorize(self):
        """Factor I - (dt^2/4) A, with A the block operator
        [(alpha D2 v - gb D2 p)/rho; (beta D2 p - gb D2 v)/mu]."""
        d2 = second_difference(self.grid)
        pr = self.params
        gb = pr.gamma * pr.beta
        a = sp.bmat([
            [pr.alpha / pr.rho * d2, -gb / pr.rho * d2],
            [-gb / pr.mu * d2, pr.beta / pr.mu * d2],
        ], format="csc")
        n = a.shape[0]
        m = sp.identity(n, format="csc") - (self.cfg.dt ** 2 / 4.0) * a
        if not np.all(np.isfinite(m.data)):
            raise ValueError("midpoint matrix I - (dt^2/4) A overflows: "
                             "material constants, dt or dx out of range")
        return spla.splu(m.tocsc()).solve

    def _source(self, v, p, exps: Exponents):
        f1 = np.abs(v) ** (exps.n1 - 1.0) * v
        f2 = np.abs(p) ** (exps.n2 - 1.0) * p
        return f1, f2

    def _conservative(self, state: State, exps: Exponents) -> State:
        dt = self.cfg.dt
        pr = self.params
        v, p, vt, pt = state.v, state.p, state.vt, state.pt
        if self.cfg.sources_on:
            f1, f2 = self._source(v, p, exps)
        else:
            f1 = f2 = np.zeros_like(v)
        iterations = (NEWTON_MAX_ITER
                      if (self.cfg.scheme == "implicit-midpoint"
                          and self.cfg.sources_on) else 1)
        vm, pm = v, p
        for it in range(iterations):
            rhs = np.concatenate([
                v + 0.5 * dt * vt + (dt * dt / 4.0) * f1 / pr.rho,
                p + 0.5 * dt * pt + (dt * dt / 4.0) * f2 / pr.mu,
            ])
            sol = self._solve(rhs)
            vm_new, pm_new = sol[:self.grid.nx], sol[self.grid.nx:]
            if iterations == 1:
                vm, pm = vm_new, pm_new
                break
            delta = max(np.max(np.abs(vm_new - vm)), np.max(np.abs(pm_new - pm)))
            vm, pm = vm_new, pm_new
            # a NaN delta stops too: the blow-up check ends the run on it
            if it > 0 and not delta > NEWTON_TOL * (1.0 + np.max(np.abs(vm))):
                break
            f1, f2 = self._source(vm, pm, exps)
        else:
            if iterations > 1:
                raise NoConvergence("implicit source iteration stalled")
        return State(
            v=2.0 * vm - v,
            p=2.0 * pm - p,
            vt=4.0 * (vm - v) / dt - vt,
            pt=4.0 * (pm - p) / dt - pt,
            t=state.t + dt,
        )

    def _damp(self, state: State, exps: Exponents) -> State:
        """Damping half-step of both velocities: over h = dt/2 the midpoint
        update of y' = -c|y|^(m-1)y is 2z - y with z + (h/2)c|z|^(m-1)z = y."""
        a = 0.25 * self.cfg.dt
        zv = _damping_solve_vec(state.vt, a * (1.0 / self.params.rho),
                                exps.m1, NEWTON_TOL, NEWTON_MAX_ITER)
        zp = _damping_solve_vec(state.pt, a * (1.0 / self.params.mu),
                                exps.m2, NEWTON_TOL, NEWTON_MAX_ITER)
        return State(state.v, state.p, 2.0 * zv - state.vt,
                     2.0 * zp - state.pt, state.t)

    def step(self, state: State, exps: Exponents) -> State:
        cfg = self.cfg
        if cfg.damping_on:
            state = self._damp(state, exps)
        state = self._conservative(state, exps)
        if cfg.damping_on:
            state = self._damp(state, exps)
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


def step(state: State, params: MaterialParams, exps: Exponents,
         grid: Grid1D, cfg: StepConfig) -> State:
    """One time step (convenience wrapper; builds a Stepper each call)."""
    return Stepper(grid, params, cfg).step(state, exps)


def step_count(t_end: float, dt: float) -> int:
    """Number of steps of size dt > 0 to t_end, rounded to a whole number."""
    if not 0.0 <= t_end / dt < math.inf:
        raise ValueError(f"t_end / dt = {t_end} / {dt} must be >= 0 and "
                         "finite")
    return int(round(t_end / dt))


@dataclass
class Trajectory:
    records: list                # EnergyRecord per recorded step
    outcome: str                 # "completed" or "blowup"
    t_detect: Optional[float]
    trigger: Optional[str]
    final_state: State
    dt: float


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
        raise ValueError("record_every must be >= 1")
    stepper = Stepper(grid, params, cfg)

    etot0 = total_energy(state0, params, exps, grid)
    damping_cum = 0.0
    state = state0.copy()
    state.t = 0.0
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
                      trigger=trigger, final_state=state, dt=cfg.dt)

"""Time integration with a dissipation-consistent splitting.

One step is a Strang sandwich

    damping half-step | conservative full step | damping half-step

where the damping substeps solve the pointwise monotone update exactly
(midpoint form, so each substep strictly dissipates the kinetic norm) and
the conservative substep is the implicit midpoint rule for the linear
stiffness.  Source terms are taken at the step-start displacement by
default ("semi-implicit": the state is first order in dt); the
"implicit-midpoint" scheme iterates them to the midpoint (second order).

A step works on a State's stacked array y of one member, (4, nx), or of a
batch of B members, (B, 4, nx): displacements y[..., :2, :], velocities
y[..., 2:, :], and (rho, mu) as a (2, 1) column.  Each operation covers both
rows of every member at once, and goes row by row only where the exponents
differ.  One batched pass, `_step_norms`, gives the blow-up check its
norms, the ledger its damping norm and the record its Q.  Every reduction
is one np.dot per member row (as ndarray.dot), and the source iteration
and the blow-up check decide per member, so a member's results do not
depend on what else is in its batch.

The damping root has a closed form, exact to roundoff, for m in {1, 2, 3},
and a per-entry Newton solve otherwise.  The conservative solve is one
block-diagonal tridiagonal solve in the eigenbasis of the 2x2 coupling
matrix (see `Stepper._factorize`), an exact change of variables.

With sources and damping off the conservative substep conserves the
discrete quadratic energy up to the roundoff of the direct linear solve.

A non-finite state is a blow-up outcome, so `simulate` and `Stepper.step`
let numpy overflow quietly and leave the decision to the blow-up check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import QUIET, _record
from .errors import BlowupDetected, InvalidArgument, NoConvergence
from .grid import Grid1D, State, second_difference, tridiagonal_solver
from .params import Exponents, MaterialParams
# not called here, but names of this module that perfbench/tracing.py patches
from .diagnostics import damping_norms, make_record, total_energy  # noqa: F401
from .grid import grad_norm_sq, quadratic_form  # noqa: F401

SCHEMES = ("semi-implicit", "implicit-midpoint")

# Relative tolerance and iteration budget of the damping Newton solve and
# of the implicit-midpoint source iteration.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 60

# Longest run a config may ask for: about 3 days at 250 us per step.
MAX_STEPS = 10**9


@dataclass(frozen=True)
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


def _step_norms(y, grid: Grid1D, params: MaterialParams, exps: Exponents,
                damping_on: bool) -> list:
    """(grad_norm_sq(v), quadratic_form(v, p), sum(damping_norms) or 0.0
    with damping off) of each member of a stacked array y, bit for bit: one
    dot per member row on differences and powers taken batch-wide."""
    y = y.reshape(-1, 4, grid.nx)
    dx, w = grid.dx, grid.weights
    dnorms = [0.0] * len(y)
    if damping_on:
        if exps.m1 == exps.m2:
            pv, pp = (np.abs(y[:, 2:]) ** (exps.m1 + 1.0)).transpose(1, 0, 2)
        else:
            pv, pp = (np.abs(y[:, row]) ** (m + 1.0)
                      for row, m in ((2, exps.m1), (3, exps.m2)))
        dnorms = [float(w.dot(a)) + float(w.dot(b)) for a, b in zip(pv, pp)]
    g = (y[:, :2, 1:] - y[:, :2, :-1]) / dx
    gv_sq = [float(gv.dot(gv)) for gv in g[:, 0]]
    mix_sq = [float(mix.dot(mix)) for mix in params.gamma * g[:, 0] - g[:, 1]]
    return [(dx * a, dx * (params.alpha1 * a + params.beta * b), dnorm)
            for a, b, dnorm in zip(gv_sq, mix_sq, dnorms)]


def _moving(new, xm) -> list:
    """Whether each member's iterate moved by more than NEWTON_TOL relative
    to its displacement, one bool per member; a NaN change counts as
    settled.  One member, (2, nx) or (1, 2, nx), takes whole-array
    reductions, which are faster than reductions along an axis."""
    if new.ndim == 2 or len(new) == 1:
        return [np.abs(new - xm).max()
                > NEWTON_TOL * (1.0 + np.abs(new[..., 0, :]).max())]
    delta = np.abs(new - xm).reshape(len(new), -1).max(axis=1)
    return (delta > NEWTON_TOL
            * (1.0 + np.abs(new[:, 0]).max(axis=1))).tolist()


class Stepper:
    """Caches the factorized midpoint matrix for (grid, params, dt)."""

    def __init__(self, grid: Grid1D, params: MaterialParams, cfg: StepConfig):
        self.grid = grid
        self.params = params
        self.cfg = cfg
        self.norms = []           # _step_norms of the last step's members
        self._mass = np.array([[params.rho], [params.mu]])
        # (dt/4)(1/rho, 1/mu); if one underflows to 0, each row goes alone
        self._damp_coef = (0.25 * cfg.dt) * (1.0 / self._mass)
        self._damp_joint = bool(self._damp_coef.all())
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
        n = lo.size + 1

        def batch_solve(rhs):
            # the members of a (B, 2, nx) rhs are the B columns of one solve;
            # one member goes flat, which dgttrs takes faster
            w = v_inv @ rhs
            w = solve(w.ravel() if w.size == n else w.reshape(-1, n).T)
            return v @ w.T.reshape(rhs.shape)
        return batch_solve

    def _source(self, x, exps: Exponents):
        """|x|^(n-1) x on the displacement rows x, with n = (n1, n2)."""
        if exps.n1 == exps.n2:
            return np.abs(x) ** (exps.n1 - 1.0) * x
        return np.stack([np.abs(r) ** (n - 1.0) * r for r, n
                         in zip((x[..., 0, :], x[..., 1, :]),
                                (exps.n1, exps.n2))], axis=-2)

    def _conservative(self, y, exps: Exponents):
        """The conservative substep from y to a new stacked array."""
        dt = self.cfg.dt
        x, xt = y[..., :2, :], y[..., 2:, :]

        def midpoint(f, base):
            return self._solve(base + ((dt * dt / 4.0) * f) / self._mass)

        base = x + (0.5 * dt) * xt
        on = self.cfg.sources_on
        xm = midpoint(self._source(x, exps) if on else 0.0, base)
        # semi-implicit stops at this first iterate
        if on and self.cfg.scheme == "implicit-midpoint":
            xm = self._iterate(xm, midpoint, base, exps)
        out = np.empty_like(y)
        out[..., :2, :] = 2.0 * xm - x
        out[..., 2:, :] = 4.0 * (xm - x) / dt - xt
        return out

    def _iterate(self, xm, midpoint, base, exps: Exponents):
        """implicit-midpoint: iterate the sources of each member to its
        midpoint, NEWTON_MAX_ITER solves in all.  A member stops on its own
        test and keeps its iterate, and the others go on without it; a NaN
        change stops it too, since the blow-up check ends its run."""
        out, rows = xm, None      # the rows of out still iterating, or all
        for _ in range(NEWTON_MAX_ITER - 1):
            new = midpoint(self._source(xm, exps), base)
            busy = _moving(new, xm)
            if rows is None:
                out = new
            else:
                out[rows] = new
            if not any(busy):
                return out
            if not all(busy):
                busy = np.flatnonzero(busy)
                rows = busy if rows is None else rows[busy]
                new, base = new[busy], base[busy]
            xm = new
        raise NoConvergence("implicit source iteration stalled")

    def _damp(self, y, exps: Exponents):
        """Damping half-step of the velocity rows of y, in place; returns y.
        Over h = dt/2 the midpoint update of y' = -c|y|^(m-1)y is 2z - y
        with z + (h/2)c|z|^(m-1)z = y."""
        vel, a = y[..., 2:, :], self._damp_coef
        if exps.m1 == exps.m2 in (1.0, 2.0, 3.0) and self._damp_joint:
            z = _damping_solve_vec(vel, a, exps.m1)
        else:
            z = np.stack([_damping_solve_vec(r, ak, m) for r, ak, m
                          in zip((vel[..., 0, :], vel[..., 1, :]), a[:, 0],
                                 (exps.m1, exps.m2))], axis=-2)
        y[..., 2:, :] = 2.0 * z - vel
        return y

    @np.errstate(**QUIET)
    def step(self, state: State, exps: Exponents) -> State:
        """The state one step on.  state.y holds one member, (4, nx), or a
        batch, (B, 4, nx), whose members each advance as they would alone.
        If a member's norms cross the blow-up cutoff, BlowupDetected carries
        the new state and, in `members`, (row, trigger, value) of each
        member that crossed.  Either way `norms` holds its `_step_norms`."""
        cfg = self.cfg
        y = self._damp(state.y.copy(), exps) if cfg.damping_on else state.y
        y = self._conservative(y, exps)
        if cfg.damping_on:
            self._damp(y, exps)
        state = State.stacked(y, state.t + cfg.dt)
        self.norms = _step_norms(y, self.grid, self.params, exps,
                                 cfg.damping_on)
        blown = []
        for row, (grad_v_sq, q, _) in enumerate(self.norms):
            for trigger, value in (("grad_v_sq", grad_v_sq),
                                   ("quadratic_form", q)):
                # written so that a NaN norm (non-finite state) also ends
                # the member's run
                if not value <= cfg.blowup_cutoff:
                    blown.append((row, trigger, value))
                    break
        if blown:
            err = BlowupDetected(state.t, *blown[0][1:])
            err.state, err.members = state, blown
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
             record_every: int = 1) -> Trajectory | list:
    """Advance to t_end, sampling diagnostics every record_every steps.

    state0 holds one member, (4, nx), and gives its Trajectory; or a batch
    of B members stacked as (B, 4, nx), and gives a list of B Trajectories,
    each equal bit for bit to its member's own run.  Blow-up detection is
    a normal terminal outcome, not an error: the member gets its last
    record and leaves the batch, and the others go on.  An error of any
    member, such as NoConvergence, is raised for the whole batch.  Every
    state it records or returns carries t = k*dt after step k, so times do
    not drift by repeated addition.
    """
    n_steps = step_count(t_end, cfg.dt)
    if record_every < 1:
        raise InvalidArgument("record_every must be >= 1")
    stepper = Stepper(grid, params, cfg)

    # one member runs as a batch of one
    state = State.stacked(state0.y.reshape(-1, 4, grid.nx).copy())
    norms = _step_norms(state.y, grid, params, exps, cfg.damping_on)
    records = [[_record(State.stacked(y), params, exps, grid, 0.0, None, q)]
               for y, (_, q, _) in zip(state.y, norms)]
    etot0 = [r[0].Etot for r in records]
    prev_dnorm = [dnorm for _, _, dnorm in norms]
    damping_cum, trajectories = [0.0] * len(records), [None] * len(records)

    live = list(range(len(records)))      # the member in each batch row
    for k in range(1, n_steps + 1):
        blown = ()
        try:
            state = stepper.step(state, exps)
        except BlowupDetected as blow:
            state = blow.state
            blown = {row: trigger for row, trigger, _ in blow.members}
        state.t = t = k * cfg.dt
        record = k % record_every == 0 or k == n_steps
        for row, (i, y, (_, q, dnorm)) in enumerate(
                zip(live, state.y, stepper.norms)):
            # with damping off every dnorm is 0.0, and damping_cum stays 0.0
            damping_cum[i] += 0.5 * cfg.dt * (prev_dnorm[i] + dnorm)
            prev_dnorm[i] = dnorm
            if record or row in blown:
                records[i].append(_record(State.stacked(y, t), params, exps,
                                          grid, damping_cum[i], etot0[i], q))
        if blown:
            for row, trigger in blown.items():
                trajectories[live[row]] = Trajectory(
                    records[live[row]], "blowup", t, trigger,
                    State.stacked(state.y[row].copy(), t))
            keep = [row for row in range(len(live)) if row not in blown]
            live = [live[row] for row in keep]
            if not live:
                break
            state = State.stacked(state.y[keep], t)
    for i, y in zip(live, state.y):
        trajectories[i] = Trajectory(records[i], "completed", None, None,
                                     State.stacked(y.copy(), state.t))
    return trajectories if state0.y.ndim == 3 else trajectories[0]

"""Time integration with a dissipation-consistent splitting.

One step is a Strang sandwich

    damping half-step | conservative full step | damping half-step

where the damping substeps solve the pointwise monotone update exactly
(midpoint form, so each substep strictly dissipates the kinetic norm) and
the conservative substep is the implicit midpoint rule for the linear
stiffness, one solve in the eigenbasis of the 2x2 coupling matrix
(`midpoint_bands`), which with sources and damping off conserves the
discrete quadratic energy to roundoff.  The solve writes w over its
right-hand side, and the new state is M z + G y, two matrices formed once
per exponent set: z = w, or the midpoint V w where the source iteration
forms it anyway.  Sources are taken at the step's start ("semi-implicit",
first order in dt) or iterated to the midpoint ("implicit-midpoint",
second order, typically in 2 solves; each iterate is tested batch-wide,
and per member only when that test fails).  The damping root has a closed
form for m in CLOSED_FORMS, else one whole-array Newton solve; a row with
m = 1 takes its half-steps as a factor in the conservative maps.  An
exponent becomes a formula once: `_twice_root` builds the damping map,
`Stepper._build` the step, its maps and its source power (`row_power`),
`simulate` the norm powers of its ledger and records; no step tests one.
On a step's path each constant is a 0-d array, which a ufunc takes faster
than a Python float, and each temporary the step owns is reused in place.
A step takes one member, (4, nx), or a batch, (B, 4, nx), each member
advancing as it would alone, and `simulate` checks the steps in blocks.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diagnostics import QUIET, _records
from .errors import InvalidArgument, check_count
from .grid import (Grid1D, State, grad_sums, row_power, second_difference,
                   tridiagonal_solver)
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

# The damping exponents m whose root `_twice_root` takes in closed form
CLOSED_FORMS = frozenset({2.0, 3.0})

# Most steps, and bytes of their states, between blow-up checks in simulate
BLOCK_STEPS = 32
BLOCK_BYTES = 2**18

HALF = np.array(0.5)          # the mirror row's halving in each solve


@dataclass(frozen=True)
class StepConfig:
    dt: float
    scheme: str = "semi-implicit"
    blowup_cutoff: float = 1e6
    damping_on: bool = True
    sources_on: bool = True

    def __post_init__(self):
        # dt^2 enters the midpoint matrix, and 4/dt the velocity update
        if not (self.dt > 0 and self.dt * self.dt < math.inf
                and 4.0 / self.dt < math.inf):
            raise InvalidArgument(f"dt = {self.dt} must be > 0 with a "
                                  "finite square and a finite 4/dt")
        if self.scheme not in SCHEMES:
            raise InvalidArgument(f"scheme must be one of {SCHEMES}")
        # written so that NaN is rejected too; inf is allowed
        if not self.blowup_cutoff > 0:
            raise InvalidArgument(f"blowup_cutoff = {self.blowup_cutoff} "
                                  "must be > 0")


def _twice_root(m, a):
    """The map r -> 2z, z + a|z|^(m-1)z = r, of a float array r into a
    fresh array, for one m >= 1 and a >= 0 a scalar or an array that
    broadcasts with r: the one place where a damping exponent picks a
    formula, whose constants are computed here, once.

    An m outside CLOSED_FORMS, m = 1 too (a step folds it into its maps),
    takes `_damping_newton`, NaN where it does not converge.  m = 2 is 2z =
    r/d, d = 1/4 + sqrt(1/16 + (a/4)|r|), bit for bit twice z = r/(1/2 +
    sqrt(1/4 + a|r|)) unless a|r| = inf or a/4 or z is subnormal.  m = 3 is
    the hyperbolic form of the cubic's one real root (Nickalls 1993), free
    of Cardano's cancellation at small a.  Where a = 0, each finite r comes
    back doubled."""
    if m not in CLOSED_FORMS:
        def twice_root(r):
            z = _damping_newton(r, a, m)
            return np.add(z, z, out=z)
    elif m == 2.0:
        a4, sixteenth, quarter = 0.25 * a, np.array(0.0625), np.array(0.25)

        def twice_root(r):
            x = np.abs(r)
            np.sqrt(np.add(np.multiply(x, a4, out=x), sixteenth, out=x), out=x)
            return np.divide(r, np.add(x, quarter, out=x), out=x)
    else:                 # m = 3
        k, three = np.sqrt(3.0 * a), np.array(3.0)
        with np.errstate(divide="ignore"):
            c1, c2 = 1.5 * k, 2.0 / k

        def twice_root(r):
            ar = np.abs(r)
            x = c1 * ar       # to c2 sinh(arcsinh(c1 |r|) / 3), in place
            np.sinh(np.divide(np.arcsinh(x, out=x), three, out=x), out=x)
            x *= c2
            # |z| <= |r| (roundoff can miss it by an ulp); at a = 0, x is NaN
            z = np.copysign(np.fmin(x, ar, out=x), r, out=x)
            return np.add(z, z, out=z)
    return twice_root


@np.errstate(divide="ignore", invalid="ignore")
def _damping_newton(r: np.ndarray, a, m):
    """Newton solve of x + a|x|^(m-1)x = r on the whole array r, in
    u = log|x|: F(u) = log(e^u + a e^(mu)) - log|r| is convex and
    increasing, so Newton from u0 = log min(|r|, (|r|/a)^(1/m)), right of
    the root, falls to it monotonically, and q = a e^((m-1)u) <= max(a, |r|)
    cannot overflow.  Each entry stops once F <= NEWTON_TOL, a relative
    residual, and then keeps its value, so its result does not depend on
    the other entries; one still moving after NEWTON_MAX_ITER steps comes
    back NaN.  |x| <= |r| with the sign of r; r = 0 and +-inf come back as
    they are, and where a = 0, r bit for bit."""
    log_r, log_a = np.log(np.abs(r)), np.log(a)
    u = np.minimum(log_r, (log_r - log_a) / m)
    for k in range(NEWTON_MAX_ITER + 1):
        q = np.exp(log_a + (m - 1.0) * u)
        res = u - log_r + np.log1p(q)
        busy = res > NEWTON_TOL       # NaN (r = 0, +-inf or NaN) is done
        if not busy.any():
            break
        # F'(u) = 1 + (m - 1) q/(1 + q), in [1, m]
        u = np.where(busy, u - res / (1.0 + (m - 1.0) * (q / (1.0 + q)))
                     if k < NEWTON_MAX_ITER else np.nan, u)
    # the clamp keeps |x| <= |r|, which exp(log |r|) can miss by an ulp
    x = np.copysign(np.minimum(np.exp(u), np.abs(r)), r)
    return np.where(a == 0.0, r, x)


def _step_norms(y, grid: Grid1D, params: MaterialParams, power) -> list:
    """(grad_norm_sq(v), quadratic_form(v, p), the sum of damping_norms by
    power, their `row_power` map, or 0.0 if power is None) of each member
    of a stacked array y, bit for bit: one np.vecdot per reduction, on
    batch-wide differences and powers, and sums, not terms, over dx.  The
    blow-up check, the ledger and the records of `simulate` read them."""
    y = y.reshape(-1, 4, grid.nx)
    dx = grid.dx
    dnorms = [0.0] * len(y) if power is None else [
        a + b for a, b in np.vecdot(grid.weights, power(y[:, 2:])).tolist()]
    sums = grad_sums(y[:, :2], params.gamma).tolist()
    return [(a / dx, (params.alpha1 * a + params.beta * b) / dx, dnorm)
            for (a, b), dnorm in zip(sums, dnorms)]


def _check_fits(y, grid: Grid1D):
    """Raise InvalidArgument unless y is (4, nx) or (B > 0, 4, nx) on grid."""
    if y.ndim not in (2, 3) or y.shape[-2:] != (4, grid.nx) or not len(y):
        raise InvalidArgument(f"state of shape {y.shape} is not (4, nx) or "
                              f"(B > 0, 4, nx) with nx = {grid.nx}")


def _settled(new, move) -> tuple:
    """Per member of new, (2, nx) or (B, 2, nx), whether its iterate moved
    by at most NEWTON_TOL relative to its displacement (a NaN change has
    not), and its largest move, from move = |new - xm| of new's shape."""
    nx = new.shape[-1]
    delta = move.reshape(-1, 2 * nx).max(axis=1)
    size = np.abs(new[..., 0, :]).reshape(-1, nx).max(axis=1)
    return (delta <= NEWTON_TOL * (1.0 + size)).tolist(), delta


def midpoint_bands(grid: Grid1D, params: MaterialParams, cfg: StepConfig):
    """(D, Q, bands) of I - (dt^2/4) A, A = C (x) D2 the block operator
    [(alpha D2 v - gb D2 p)/rho; (beta D2 p - gb D2 v)/mu]; a non-finite
    band raises InvalidArgument (the factorization checks the pivots).
    C = diag(1/rho, 1/mu) S, S = [[alpha, -gb], [-gb, beta]] SPD (det =
    beta*alpha1 > 0), is V Lambda V^-1 with V = D Q, V^-1 = Q^T D^-1,
    D = diag(rho, mu)^(-1/2) and D S D = Q Lambda Q^T, Lambda > 0.  So in
    w = V^-1 u the system splits into (I - (dt^2/4) lambda_k D2) w_k =
    (V^-1 rhs)_k: bands are the (main, upper) of -(dt^2/4) lambda_k D2."""
    gb = params.gamma * params.beta
    d = 1.0 / np.sqrt(np.array([params.rho, params.mu]))

    def check_finite(*arrays):
        if not all(np.isfinite(x).all() for x in arrays):
            raise InvalidArgument("midpoint matrix I - (dt^2/4) A overflows: "
                                  "material constants, dt or dx out of range")

    with np.errstate(**QUIET):
        dsd = d[:, None] * np.array([[params.alpha, -gb],
                                     [-gb, params.beta]]) * d
        check_finite(dsd)
        lam, q = np.linalg.eigh(dsd)
        # lambda_k D2 (A in the eigenbasis) first, so that its overflow shows
        bands = tuple(-(cfg.dt ** 2 / 4.0) * (lam[:, None] * band)
                      for band in second_difference(grid)[1:])
    check_finite(*bands)
    return d, q, bands


class Stepper:
    """Caches solver, eigenbasis and damping coefficients for (grid, params,
    dt), and the step, with its maps, that `_build` made for the last
    Exponents object it took."""

    def __init__(self, grid: Grid1D, params: MaterialParams, cfg: StepConfig):
        self.grid, self.params, self.cfg = grid, params, cfg
        self._guarded = True      # `simulate` clears it on its own Stepper
        self._exps = self._run = None
        mass = np.array([[params.rho], [params.mu]])
        # (dt/4)(1/rho, 1/mu) on each node, (2, nx), like the other constants
        # of a step, so that numpy multiplies arrays of one shape; a row whose
        # coefficient underflows to 0 is left undamped, bit for bit
        self._damp_coef = ((0.25 * cfg.dt) * (1.0 / mass)).repeat(grid.nx, 1)
        self._solve = self._factorize(mass)

    def _factorize(self, mass):
        """Keep V, V^-1 and the source map into w = V^-1 u; return the
        in-place solver of (I - (dt^2/4) Lambda D2) w = rhs, rhs (2, nx) or
        (B, 2, nx), as the SPD system of its mirror row at x = L halved,
        rhs[-1] too; D2 reads no clamped node, so w[0] = rhs[0] and no other
        row reads it."""
        d, q, (mid, up) = midpoint_bands(self.grid, self.params, self.cfg)
        main = 1.0 + mid
        main[:, -1] *= 0.5
        # the k = 1, 2 systems end to end, joined by a zero off-diagonal
        solve = tridiagonal_solver(main.ravel(), np.append(
            up, [[0.0], [0.0]], axis=1).ravel()[:-1])
        dt, n = self.cfg.dt, mid.size
        self._v, self._v_inv = d[:, None] * q, q.T / d
        # f -> V^-1 (dt^2/4) (f1/rho, f2/mu)
        self._into_f = self._v_inv * ((dt * dt / 4.0) / mass).T

        def batch_solve(rhs):
            """rhs, a C-ordered (2, nx) or (B, 2, nx), overwritten with its
            solution w and returned: its mirror rows halved, the B members
            are the columns of one dpttrs on its (2 nx, B) F-ordered view."""
            rhs[..., -1] *= HALF
            solve(rhs.reshape(-1, n).T)
            return rhs
        return batch_solve

    def _iterate(self, y, failed: dict, into, start, source):
        """implicit-midpoint: iterate each member's sources from its predicted
        midpoint to its midpoint, NEWTON_MAX_ITER solves in all.  Each iterate
        is tested batch-wide, and per member only when that test fails: a
        member stops on its own test and keeps its iterate, and the others go
        on without it; one whose change turns NaN, or still moving, fails."""
        base_w = into @ y
        rhs = source(start @ y)
        rhs += base_w
        out = xm = self._v @ self._solve(rhs)
        rows = None               # the rows of out still iterating, or all
        for _ in range(NEWTON_MAX_ITER - 1):
            rhs = source(xm)
            rhs += base_w
            new = self._v @ self._solve(rhs)
            if rows is None:
                out = new
            else:
                out[rows] = new
            move = new - xm               # all settle; a NaN fails the test
            if np.maximum.reduce(np.abs(move, out=move), None) <= NEWTON_TOL:
                return out
            settled, delta = _settled(new, move)
            # a NaN change never settles: its member fails and stops now
            for i in np.flatnonzero(np.isnan(delta)).tolist():
                failed.setdefault(i if rows is None else rows[i].item(),
                                  "source_iteration")
                settled[i] = True
            if all(settled):
                return out
            if any(settled):
                busy = np.flatnonzero([not s for s in settled])
                rows = busy if rows is None else rows[busy]
                new, base_w = new[busy], base_w[busy]
            xm = new
        for row in range(len(settled)) if rows is None else rows.tolist():
            failed.setdefault(row, "source_iteration")
        return out

    def _damp(self, ms: dict):
        """The damping half-step of the velocity rows ms names, {row: m},
        (y, failed) -> y with those velocities y -> 2z - y, z +
        (h/2)c|z|^(m-1)z = y, the midpoint update of y' = -c|y|^(m-1)y over
        h = dt/2, in place: one `_twice_root` map of both velocity rows if
        they are named with one m, else one map per row.  A NaN root of a
        finite velocity, only Newton's (m not in CLOSED_FORMS), fails."""
        a, joint = self._damp_coef, len(ms) == 2 and ms[0] == ms[1]
        maps = [(slice(2, 4), _twice_root(ms[0], a))] if joint else [
            (slice(2 + i, 3 + i), _twice_root(m, a[i:i + 1]))
            for i, m in ms.items()]
        newton = not set(ms.values()) <= CLOSED_FORMS

        def half(y, failed):
            for rows, twice_root in maps:
                vel = y[..., rows, :]
                z = twice_root(vel)
                if newton and np.isnan(z).any():
                    lost = (np.isnan(z) & np.isfinite(vel)).any(axis=(-2, -1))
                    for row in np.flatnonzero(lost).tolist():
                        failed.setdefault(row, "damping_solve")
                np.subtract(z, vel, out=vel)
            return y
        return half

    def step(self, state: State, exps: Exponents) -> State:
        """The state one step on, of one member, (4, nx), or of a batch,
        (B, 4, nx), each advancing as it would alone, perhaps to non-finite
        values (`simulate` decides blow-up); a member whose solve fails is
        named in the new State's `failed`.  The call checks the shape and
        holds numpy's QUIET error state, unless `simulate` does (`_guarded`)."""
        if not self._guarded:
            return self._step(state, exps)
        _check_fits(state.y, self.grid)
        with np.errstate(**QUIET):
            return self._step(state, exps)

    def _build(self, exps: Exponents):
        """The step for exps, a function of (y, failed) to a new stacked array
        whose path and maps, into the solve and on to the new state, are
        fixed here, once: the conservative substep, between damping
        half-steps of the rows with m != 1 if damping is on and there is
        one.  A damped row with m = 1 takes its half-steps x_t -> kappa x_t,
        kappa = (1 - a)/(1 + a), as k = kappa in the maps; every other row
        has k = 1."""
        cfg, dt = self.cfg, self.cfg.dt
        ms, a, v_inv = (exps.m1, exps.m2), self._damp_coef[:, :1], self._v_inv
        linear = [cfg.damping_on and m == 1.0 for m in ms]
        k = np.where(np.c_[linear], (1.0 - a) / (1.0 + a), 1.0)
        # y -> V^-1 z and y -> z, z = x + (dt/2) k x_t the predicted midpoint;
        # the new state (x + 2D, (4/dt) k D - k^2 x_t), D = xm - x, is out xm
        # + g y, and out V w where the midpoint xm = V w is not formed
        into = np.hstack([v_inv, (0.5 * dt) * v_inv * k.T])
        start = np.hstack([np.eye(2), np.diag((0.5 * dt) * k[:, 0])])
        out = np.concatenate([2.0 * np.eye(2), (4.0 / dt) * np.diag(k[:, 0])])
        g = np.diag(np.r_[1.0, 1.0, -(k * k)[:, 0]])
        g[:, :2] -= out
        into_f, power = self._into_f, row_power(exps.n1 - 1.0, exps.n2 - 1.0)

        def source(x):        # x -> V^-1 (dt^2/4) (f1/rho, f2/mu)
            f = power(x)
            f *= x
            return into_f @ f

        def midpoint(y, failed):      # sources off: w
            return self._solve(into @ y)
        to_new = out @ self._v
        if cfg.sources_on and cfg.scheme == "semi-implicit":
            def midpoint(y, failed):      # the source at the step's start
                rhs = into @ y
                rhs += source(y[..., :2, :])
                return self._solve(rhs)
        elif cfg.sources_on:          # xm, which the iteration forms anyway
            midpoint, to_new = functools.partial(
                self._iterate, into=into, start=start, source=source), out

        def conservative(y, failed):
            new = to_new @ midpoint(y, failed)
            new += g @ y
            return new
        if not cfg.damping_on or all(linear):
            return conservative
        half = self._damp({i: m for i, m in enumerate(ms) if not linear[i]})
        return lambda y, failed: half(conservative(half(y.copy(), failed),
                                                   failed), failed)

    def _step(self, state: State, exps: Exponents) -> State:
        if exps is not self._exps:    # identity costs less than a hash
            self._exps, self._run = exps, self._build(exps)
        y = self._run(state.y[0] if len(state.y) == 1 else state.y,
                      failed := {})         # B = 1 steps as (4, nx)
        return State.stacked(y.reshape(state.y.shape), state.t + self.cfg.dt,
                             failed)


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
    outcome: str                 # "completed", "blowup", "solver_failure"
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
    each equal bit for bit to its member's own run.  Blow-up, checked at
    t = 0 and after each step, is a normal terminal outcome: the member
    gets its last record and leaves the batch.  A member that a step marks
    failed ends as "solver_failure" at its last good state, t_detect - dt,
    with no record at t_detect.  Steps, one `Stepper.step` call each on the
    step built for exps, run in blocks (BLOCK_STEPS, BLOCK_BYTES, or up to
    a failure) stacked and checked in one pass, and a member's steps past
    its end are dropped.  A state has t = k*dt, not a sum of steps.
    """
    _check_fits(state0.y, grid)
    n_steps = step_count(t_end, cfg.dt)
    check_count("record_every", record_every, 1)
    stepper = Stepper(grid, params, cfg)
    stepper._guarded = False      # this function holds both guards of step
    # the power maps of the ledger's damping norms and the records' sources
    dpow = row_power(exps.m1 + 1.0, exps.m2 + 1.0) if cfg.damping_on else None
    spow = row_power(exps.n1 + 1.0, exps.n2 + 1.0)

    # one member runs as a batch of one, and t = 0 is a block of its own
    block = [State.stacked(state0.y.reshape(-1, 4, grid.nx).copy())]
    live = list(range(len(block[0].y)))   # the member in each batch row
    records, trajectories = [[] for _ in live], [None] * len(live)
    damping_cum, prev_dnorm = [0.0] * len(live), [0.0] * len(live)
    dt, cutoff, k = cfg.dt, cfg.blowup_cutoff, -1
    while True:
        y = block[0].y if len(block) == 1 else np.array([s.y for s in block])
        norms = _step_norms(y, grid, params, dpow)
        rows = range(len(live))           # the batch rows still running
        for at, state in zip(range(0, len(norms), len(live)), block):
            k += 1
            state.t = t = k * dt
            record = k % record_every == 0 or k == n_steps
            ledger, keep = {}, []     # recording rows: (damping_cum, etot0, Q)
            for row in rows:
                i, (grad_v_sq, q, dnorm) = live[row], norms[at + row]
                if row in state.failed:       # it ends at its last good state
                    trajectories[i] = Trajectory(
                        records[i], "solver_failure", t, state.failed[row],
                        State.stacked(last.y[row].copy(), last.t))
                    continue
                if k:     # the trapezoid; with damping off it stays 0.0
                    damping_cum[i] += 0.5 * dt * (prev_dnorm[i] + dnorm)
                prev_dnorm[i] = dnorm
                # `not <=`: a NaN norm (non-finite state) also ends the run
                trigger = ("grad_v_sq" if not grad_v_sq <= cutoff
                           else "quadratic_form" if not q <= cutoff else None)
                if record or trigger:     # at t = 0, Etot(0) is its own
                    ledger[row] = (damping_cum[i],
                                   records[i][0].Etot if k else None, q)
                if trigger or k == n_steps:
                    trajectories[i] = Trajectory(
                        records[i], "blowup" if trigger else "completed",
                        t if trigger else None, trigger,
                        State.stacked(state.y[row].copy(), t))
                else:
                    keep.append(row)
            if ledger:
                for row, r in zip(ledger, _records(state.y[list(ledger)], t,
                                                   params, exps, grid,
                                                   ledger.values(), spow)):
                    records[live[row]].append(r)
            rows, last = keep, state
            if not rows:
                return trajectories if state0.y.ndim == 3 else trajectories[0]
        if len(rows) < len(live):
            live = [live[row] for row in rows]
            state = last = State.stacked(state.y[rows], t)
        block = []
        for _ in range(min(n_steps - k, BLOCK_STEPS,
                           max(1, BLOCK_BYTES // state.y.nbytes))):
            block.append(state := stepper.step(state, exps))
            if state.failed:      # a failed member is not stepped further
                break

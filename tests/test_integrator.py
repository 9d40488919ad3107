from dataclasses import astuple

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import piezowave as pw
from piezowave.diagnostics import (QUIET, damping_norms, make_record,
                                   total_energy)
from piezowave.errors import BlowupDetected
from piezowave.grid import (grad_norm_sq, quadratic_form, second_difference,
                            stiffness_solver, tridiagonal_solver)
from piezowave.integrator import (NEWTON_MAX_ITER, NEWTON_TOL, _damping_newton,
                                  _damping_solve_vec, _step_norms)


# ---------------------------------------------------------------------------
# pointwise monotone damping solve

def damping_solve(r, a, m):
    """The root of x + a|x|^(m-1)x = r, from the kernel on one entry."""
    return float(_damping_solve_vec(np.array([r]), a, m)[0])


def test_damping_solve_linear_closed_form():
    # x + 2x = 3 -> x = 1
    assert damping_solve(3.0, 2.0, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_damping_solve_cubic():
    # x + |x|^2 x = 2 at dt = 1: root of x + x^3 = 2 is x = 1
    assert damping_solve(2.0, 1.0, 3.0) == pytest.approx(1.0, abs=1e-12)


def test_damping_solve_negative_argument_odd_symmetry():
    assert damping_solve(-2.0, 1.0, 3.0) == pytest.approx(-1.0, abs=1e-12)


def test_damping_solve_zero():
    assert damping_solve(0.0, 5.0, 2.5) == 0.0


@given(r=st.floats(-1e4, 1e4), dt=st.floats(1e-6, 10.0),
       m=st.floats(1.0, 4.9))
@settings(max_examples=200, deadline=None)
def test_damping_solve_residual_and_contraction(r, dt, m):
    x = damping_solve(r, dt, m)
    assert abs(x + dt * abs(x) ** (m - 1.0) * x - r) <= 1e-9 * (1.0 + abs(r))
    # the solve is a contraction toward zero and preserves sign
    assert abs(x) <= abs(r)
    assert x * r >= 0.0


@given(r1=st.floats(-100.0, 100.0), r2=st.floats(-100.0, 100.0))
@settings(max_examples=100, deadline=None)
def test_damping_solve_monotone(r1, r2):
    x1 = damping_solve(r1, 0.3, 2.0)
    x2 = damping_solve(r2, 0.3, 2.0)
    if r1 < r2:
        assert x1 <= x2
    elif r1 > r2:
        assert x1 >= x2


def test_damping_solve_vectorized_matches_scalar(rng):
    """Each entry converges on its own, so an entry's bits do not depend
    on the other entries of the batch."""
    r = rng.uniform(-50, 50, size=64)
    xs = _damping_solve_vec(r, 0.7, 3.2)
    for ri, xi in zip(r, xs):
        assert xi == damping_solve(ri, 0.7, 3.2)


# r in +-[1e-6, 1e3], sorted, and the damping coefficients a = dt/(4 rho)
# of the stepper (dt = 1e-3), of unit size and of a stiff case
CLOSED_FORM_R = np.concatenate([-np.logspace(-6, 3, 1001)[::-1],
                                np.logspace(-6, 3, 1001)])
CLOSED_FORM_CASES = [(m, a) for m in (2.0, 3.0) for a in (2.5e-4, 1.0, 1e3)]


@pytest.mark.parametrize("m, a", CLOSED_FORM_CASES)
def test_damping_closed_form_residual_symmetry_monotone(m, a):
    r = CLOSED_FORM_R
    x = _damping_solve_vec(r, a, m)
    residual = x + a * np.abs(x) ** (m - 1.0) * x - r
    assert np.all(np.abs(residual) <= 1e-14 * (1.0 + np.abs(r)))
    assert np.array_equal(_damping_solve_vec(-r, a, m), -x)
    assert np.all(np.diff(x) > 0.0)


@pytest.mark.parametrize("m, a", CLOSED_FORM_CASES)
def test_damping_closed_form_matches_newton(m, a):
    """The Newton branch stops at a residual of NEWTON_TOL (1 + |r|), which
    bounds its error since phi' >= 1.  Three more Newton steps take it to
    roundoff, where it must agree with the closed form to 1e-13 relative."""
    r = CLOSED_FORM_R
    x = _damping_solve_vec(r, a, m)
    newton = _damping_newton(r, a, m)
    assert np.all(np.abs(x - newton) <= NEWTON_TOL * (1.0 + np.abs(r)))
    for _ in range(3):
        power = np.abs(newton) ** (m - 1.0)
        newton = newton - (newton + a * power * newton - r) \
            / (1.0 + a * m * power)
    assert np.all(np.abs(x - newton) <= 1e-13 * np.abs(newton))


@pytest.mark.parametrize("material", [(1.0, 2.0, 1.0, 1.0, 1.0),
                                      (2.3, 5.0, 0.7, 1.9, 0.4)],
                         ids=["reference", "asymmetric"])
def test_decoupled_solve_matches_assembled_lu(material, ref_grid, rng):
    """The two tridiagonal solves in the eigenbasis of C agree with a
    sparse LU solve of the assembled 2nx system I - (dt^2/4) A."""
    params = pw.make_params(*material)
    dt = 1e-3
    stepper = pw.Stepper(ref_grid, params, pw.StepConfig(dt=dt))
    d2 = sp.diags(second_difference(ref_grid), [-1, 0, 1])
    gb = params.gamma * params.beta
    a = sp.bmat([[params.alpha / params.rho * d2, -gb / params.rho * d2],
                 [-gb / params.mu * d2, params.beta / params.mu * d2]])
    lu = spla.splu(sp.csc_matrix(sp.identity(2 * ref_grid.nx)
                                 - (dt * dt / 4.0) * a))
    rhs = rng.standard_normal((2, ref_grid.nx))
    expected = lu.solve(rhs.ravel()).reshape(rhs.shape)
    got = stepper._solve(rhs)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_singular_tridiagonal_factor_is_a_value_error(ref_params, ref_grid,
                                                     monkeypatch):
    """A nonzero dgttrf info (a zero pivot) is reported, not ignored, by
    both users of the one tridiagonal factorization."""
    def dgttrf(dl, d, du):
        return dl, d, du, d[:-2], np.arange(d.size, dtype=np.int32), 3

    monkeypatch.setattr(scipy.linalg.lapack, "dgttrf", dgttrf)
    with pytest.raises(ValueError, match="singular"):
        pw.Stepper(ref_grid, ref_params, pw.StepConfig(dt=1e-3))
    with pytest.raises(ValueError, match="singular"):
        stiffness_solver(ref_grid)


# ---------------------------------------------------------------------------
# the stacked layout against a four-array reference step

class _FourArrayStep:
    """The Strang step on separate v, p, vt and pt arrays, with one
    tridiagonal solve per eigen-system: the algorithm and the arithmetic
    order that the stacked Stepper must reproduce bit for bit."""

    def __init__(self, grid, params, cfg):
        self.params, self.cfg = params, cfg
        gb = params.gamma * params.beta
        lower, main, upper = second_difference(grid)
        d = 1.0 / np.sqrt(np.array([params.rho, params.mu]))
        dsd = d[:, None] * np.array([[params.alpha, -gb],
                                     [-gb, params.beta]]) * d
        lam, q = np.linalg.eigh(dsd)
        c = cfg.dt ** 2 / 4.0
        self.solvers = [tridiagonal_solver(-c * (lk * lower),
                                           1.0 - c * (lk * main),
                                           -c * (lk * upper)) for lk in lam]
        self.v, self.v_inv = d[:, None] * q, q.T / d

    def solve(self, rhs):
        w = self.v_inv @ rhs
        return self.v @ np.array([s(wk) for s, wk in zip(self.solvers, w)])

    def conservative(self, v, p, vt, pt, exps):
        dt, pr, on = self.cfg.dt, self.params, self.cfg.sources_on

        def source(v, p):
            return (np.abs(v) ** (exps.n1 - 1.0) * v,
                    np.abs(p) ** (exps.n2 - 1.0) * p)

        def midpoint(f1, f2):
            return self.solve(np.array([
                v + 0.5 * dt * vt + (dt * dt / 4.0) * f1 / pr.rho,
                p + 0.5 * dt * pt + (dt * dt / 4.0) * f2 / pr.mu]))

        vm, pm = midpoint(*(source(v, p) if on else (0.0, 0.0)))
        if on and self.cfg.scheme == "implicit-midpoint":
            for _ in range(NEWTON_MAX_ITER - 1):
                vm_new, pm_new = midpoint(*source(vm, pm))
                delta = max(np.max(np.abs(vm_new - vm)),
                            np.max(np.abs(pm_new - pm)))
                vm, pm = vm_new, pm_new
                if not delta > NEWTON_TOL * (1.0 + np.max(np.abs(vm))):
                    break
        return (2.0 * vm - v, 2.0 * pm - p, 4.0 * (vm - v) / dt - vt,
                4.0 * (pm - p) / dt - pt)

    def damp(self, v, p, vt, pt, exps):
        a = 0.25 * self.cfg.dt
        zv = _damping_solve_vec(vt, a * (1.0 / self.params.rho), exps.m1)
        zp = _damping_solve_vec(pt, a * (1.0 / self.params.mu), exps.m2)
        return v, p, 2.0 * zv - vt, 2.0 * zp - pt

    def step(self, fields, exps):
        if self.cfg.damping_on:
            fields = self.damp(*fields, exps)
        fields = self.conservative(*fields, exps)
        if self.cfg.damping_on:
            fields = self.damp(*fields, exps)
        return fields


MATERIALS = [(1.0, 2.0, 1.0, 1.0, 1.0), (2.3, 5.0, 0.7, 1.9, 0.4)]


@pytest.mark.parametrize("material", MATERIALS,
                         ids=["reference", "asymmetric"])
@pytest.mark.parametrize("exponents", [(1, 1, 2, 2), (2, 2, 3, 3),
                                       (3, 3, 3, 3), (4, 4, 3, 3),
                                       (1, 3, 2, 3)],
                         ids=["m1", "m2", "m3", "m4-newton", "mixed"])
@pytest.mark.parametrize("scheme", pw.integrator.SCHEMES)
def test_stacked_step_matches_four_array_reference(scheme, exponents,
                                                   material, ref_grid):
    """50 steps of the stacked Stepper equal the four-array reference bit
    for bit, and the state they start from is left unchanged."""
    params = pw.make_params(*material)
    exps = pw.validate_exponents(*exponents)
    cfg = pw.StepConfig(dt=1e-3, scheme=scheme)
    stepper = pw.Stepper(ref_grid, params, cfg)
    reference = _FourArrayStep(ref_grid, params, cfg)
    state = pw.state_from_modes(ref_grid, [0.4, -0.1], [0.3], [0.5, 0.2],
                                [-0.3])
    fields = tuple(x.copy() for x in (state.v, state.p, state.vt, state.pt))
    for k in range(1, 51):
        before = state.y.copy()
        new = stepper.step(state, exps)
        assert np.array_equal(state.y, before)
        state, fields = new, reference.step(fields, exps)
        assert state.t == pytest.approx(k * 1e-3)
        assert np.array_equal(state.y, np.array(fields)), f"step {k}"


# ---------------------------------------------------------------------------
# full step / trajectory properties

def _small_state(grid):
    return pw.state_from_modes(grid, [0.3], [0.2], [0.1], [-0.05])


def test_conservation_without_damping_and_sources(ref_params, ref_grid):
    exps = pw.validate_exponents(1, 1, 2, 2)
    cfg = pw.StepConfig(dt=1e-3, damping_on=False, sources_on=False)
    traj = pw.simulate(_small_state(ref_grid), ref_params, exps, ref_grid,
                       cfg, 2.0, record_every=100)
    e = np.array([r.E for r in traj.records])
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-9


def test_dissipativity_with_damping_only(ref_params, ref_grid):
    """With sources off, every record must lose quadratic energy."""
    exps = pw.validate_exponents(2, 3, 3, 3)
    cfg = pw.StepConfig(dt=1e-3, sources_on=False)
    traj = pw.simulate(_small_state(ref_grid), ref_params, exps, ref_grid,
                       cfg, 2.0, record_every=20)
    e = np.array([r.E for r in traj.records])
    assert np.all(np.diff(e) <= 1e-14 * e[0])


def test_time_reversal_of_conservative_step(ref_params, ref_grid):
    """The midpoint conservative step is symmetric: run forward, flip the
    velocities, run back, and the initial state returns to roundoff."""
    exps = pw.validate_exponents(1, 1, 2, 2)
    cfg = pw.StepConfig(dt=1e-3, scheme="implicit-midpoint",
                        damping_on=False, sources_on=False)
    stepper = pw.Stepper(ref_grid, ref_params, cfg)
    s0 = _small_state(ref_grid)
    s = s0.copy()
    for _ in range(100):
        s = stepper.step(s, exps)
    s = pw.State(s.v, s.p, -s.vt, -s.pt, 0.0)
    for _ in range(100):
        s = stepper.step(s, exps)
    assert np.max(np.abs(s.v - s0.v)) < 1e-10
    assert np.max(np.abs(s.p - s0.p)) < 1e-10
    assert np.max(np.abs(s.vt + s0.vt)) < 1e-10


def test_total_energy_monotone_on_full_system(ref_params, ref_grid):
    """Sources on, damping on: Etot must still be non-increasing (up to
    solver tolerance) on a dissipative configuration."""
    exps = pw.validate_exponents(2, 2, 3, 3)
    traj = pw.simulate(_small_state(ref_grid), ref_params, exps, ref_grid,
                       pw.StepConfig(dt=1e-3), 2.0, record_every=10)
    et = np.array([r.Etot for r in traj.records])
    assert np.all(np.diff(et) <= 1e-10 * (1.0 + abs(et[0])))


def test_blowup_detection_and_trajectory_truncation(ref_params, ref_grid):
    exps = pw.validate_exponents(2, 2, 3, 3)
    big = pw.state_from_modes(ref_grid, [5.0], [4.5], [0.0], [0.0])
    traj = pw.simulate(big, ref_params, exps, ref_grid,
                       pw.StepConfig(dt=1e-3), 20.0, record_every=10)
    assert traj.outcome == "blowup"
    assert traj.trigger in ("grad_v_sq", "quadratic_form")
    assert 0.0 < traj.t_detect < 20.0
    assert traj.records[-1].t == pytest.approx(traj.t_detect)


def test_step_raises_blowup_directly(ref_params, ref_grid):
    exps = pw.validate_exponents(1, 1, 2, 2)
    cfg = pw.StepConfig(dt=1e-3, blowup_cutoff=1e-6)
    with pytest.raises(BlowupDetected):
        pw.Stepper(ref_grid, ref_params, cfg).step(_small_state(ref_grid),
                                                   exps)


def test_zero_t_end_yields_single_record(ref_params, ref_grid):
    exps = pw.validate_exponents(1, 1, 2, 2)
    traj = pw.simulate(_small_state(ref_grid), ref_params, exps, ref_grid,
                       pw.StepConfig(dt=1e-3), 0.0)
    assert len(traj.records) == 1
    assert traj.outcome == "completed"


def test_record_every_downsampling(ref_params, ref_grid):
    exps = pw.validate_exponents(1, 1, 2, 2)
    traj = pw.simulate(_small_state(ref_grid), ref_params, exps, ref_grid,
                       pw.StepConfig(dt=1e-3), 0.1, record_every=25)
    assert len(traj.records) == 5   # t = 0, 25, 50, 75, 100 steps
    assert traj.records[-1].t == pytest.approx(0.1)


def test_time_is_step_count_times_dt(ref_params):
    """t = k*dt on every recorded state, not a running sum of dt: the sum
    gives 1.4749999999999484 after 1475 steps of 1e-3."""
    grid = pw.Grid1D(1.0, 21)
    exps = pw.validate_exponents(1, 1, 2, 2)
    traj = pw.simulate(_small_state(grid), ref_params, exps, grid,
                       pw.StepConfig(dt=1e-3), 1.475, record_every=25)
    assert [r.t for r in traj.records] == [k * 1e-3
                                           for k in range(0, 1476, 25)]
    assert traj.records[-1].t == 1475 * 1e-3
    assert traj.final_state.t == 1475 * 1e-3


def test_blowup_time_is_step_count_times_dt(ref_params):
    grid = pw.Grid1D(1.0, 21)
    exps = pw.validate_exponents(2, 2, 3, 3)
    big = pw.state_from_modes(grid, [5.0], [4.5], [0.0], [0.0])
    traj = pw.simulate(big, ref_params, exps, grid, pw.StepConfig(dt=1e-3),
                       20.0)
    assert traj.outcome == "blowup"
    k = len(traj.records) - 1
    assert traj.t_detect == traj.records[-1].t == k * 1e-3
    assert traj.final_state.t == k * 1e-3


def test_step_config_validation():
    with pytest.raises(ValueError):
        pw.StepConfig(dt=0.0)
    with pytest.raises(ValueError):
        pw.StepConfig(dt=1e-3, scheme="leapfrog")


@pytest.mark.parametrize("scheme, low, high",
                         [("semi-implicit", 1.8, 3.0),
                          ("implicit-midpoint", 3.8, 4.2)])
def test_scheme_order_in_the_state(scheme, low, high):
    """Halving dt from 4e-3 to 2.5e-4 on the asymmetric material with mixed
    exponents, the max-norm differences of successive final states shrink
    by a ratio near 2 for semi-implicit (its source is taken at the step
    start, so the state is first order) and near 4 for implicit-midpoint
    (second order)."""
    params = pw.make_params(*MATERIALS[1])
    grid = pw.Grid1D(1.0, 81)
    exps = pw.validate_exponents(1, 3, 2, 3)
    finals = [pw.simulate(_small_state(grid), params, exps, grid,
                          pw.StepConfig(dt=4e-3 / 2**k, scheme=scheme), 0.4,
                          10**6).final_state.y for k in range(5)]
    diffs = [np.abs(b - a).max() for a, b in zip(finals, finals[1:])]
    assert low <= diffs[-2] / diffs[-1] <= high


def test_schemes_agree_at_first_order(ref_params, ref_grid):
    """Semi-implicit and iterated midpoint differ only at O(dt^2) per step."""
    exps = pw.validate_exponents(1, 1, 2, 2)
    s0 = _small_state(ref_grid)
    out = {}
    for scheme in ("semi-implicit", "implicit-midpoint"):
        cfg = pw.StepConfig(dt=1e-3, scheme=scheme)
        out[scheme] = pw.simulate(s0, ref_params, exps, ref_grid, cfg,
                                  0.5).final_state
    diff = np.max(np.abs(out["semi-implicit"].v
                         - out["implicit-midpoint"].v))
    assert diff < 1e-5


# ---------------------------------------------------------------------------
# a batch of members, each as if alone

def _bits(traj):
    """Records, outcome, t_detect, trigger and final state of a trajectory,
    with every array as its bytes, so that NaN compares equal to itself."""
    return (np.array([astuple(r) for r in traj.records]).tobytes(),
            traj.outcome, traj.t_detect, traj.trigger,
            traj.final_state.y.tobytes(), traj.final_state.t)


# members: two that complete, NaN initial data (blow-up at the first step),
# and an amplitude that blows up later, so the batch shrinks twice mid-run
BATCH_AMPLITUDES = [0.05, 40.0, 2.0, float("nan"), 100.0]


@pytest.mark.parametrize("exponents", [(1, 1, 2, 2), (4, 1, 3, 2)],
                         ids=["m1", "mixed-newton-m4"])
@pytest.mark.parametrize("order", [[0], [4, 1], [0, 1, 2, 3, 4],
                                   [4, 2, 0, 3, 1]],
                         ids=["B1", "B2", "B5", "B5-permuted"])
def test_batch_member_equals_its_single_run(order, exponents):
    """A member's trajectory from a batched simulate equals, bit for bit,
    its own single-member simulate, whatever else is in the batch and in
    whatever order."""
    params = pw.make_params(*MATERIALS[1])
    exps = pw.validate_exponents(*exponents)
    grid = pw.Grid1D(1.0, 41)
    cfg = pw.StepConfig(dt=1e-3, scheme="implicit-midpoint")
    states = [pw.state_from_modes(grid, [a], [0.5 * a], [0.1], [0.0])
              for a in BATCH_AMPLITUDES]
    single = [pw.simulate(s, params, exps, grid, cfg, 0.3, 10)
              for s in states]
    assert [t.outcome for t in single] == ["completed"] * 3 + ["blowup"] * 2
    assert 0.001 == single[3].t_detect < single[4].t_detect
    batch = pw.simulate(pw.State.stacked(np.array([states[i].y
                                                   for i in order])),
                        params, exps, grid, cfg, 0.3, 10)
    assert [_bits(t) for t in batch] == [_bits(single[i]) for i in order]


def test_batched_step_names_each_blown_member(ref_params, ref_grid):
    """Stepper.step on a batch raises BlowupDetected once, naming the row
    and trigger of every member that crossed the cutoff, and carries the
    new state of the whole batch."""
    exps = pw.validate_exponents(1, 1, 2, 2)
    states = [pw.state_from_modes(ref_grid, [a], [0.0], [0.0], [0.0])
              for a in (1e-3, 1.0, float("nan"))]
    cfg = pw.StepConfig(dt=1e-3, blowup_cutoff=1.0)
    with pytest.raises(BlowupDetected) as info:
        pw.Stepper(ref_grid, ref_params, cfg).step(
            pw.State.stacked(np.array([s.y for s in states])), exps)
    assert [(row, trigger) for row, trigger, _ in info.value.members] \
        == [(1, "grad_v_sq"), (2, "grad_v_sq")]
    assert info.value.state.y.shape == (3, 4, ref_grid.nx)
    assert info.value.state.t == 1e-3


# members of the fused-norm batches: ordinary data, a NaN member and an
# overflowed member (its differences and powers are inf)
NORM_AMPLITUDES = [0.3, float("nan"), 1e200, -2.0, 0.05]


@pytest.mark.parametrize("damping_on", [True, False],
                         ids=["damped", "undamped"])
@pytest.mark.parametrize("exponents", [(2, 2, 3, 3), (4, 1, 3, 2)],
                         ids=["equal", "mixed-newton-m4"])
@pytest.mark.parametrize("order", [[2], [1, 0], [0, 1, 2, 3, 4]],
                         ids=["B1", "B2", "B5"])
def test_step_norms_equal_the_public_functions(order, exponents,
                                               damping_on):
    """The fused pass gives each member, bit for bit, grad_norm_sq(v),
    quadratic_form(v, p) and the sum of damping_norms (0.0 with damping
    off), for a batch and for one member given as (4, nx)."""
    params = pw.make_params(*MATERIALS[1])
    exps = pw.validate_exponents(*exponents)
    grid = pw.Grid1D(1.0, 41)
    y = np.array([pw.state_from_modes(grid, [a, 0.1], [-0.5 * a], [a],
                                      [0.2, a]).y
                  for a in (NORM_AMPLITUDES[i] for i in order)])
    with np.errstate(**QUIET):
        expected = [(grad_norm_sq(m[0], grid),
                     quadratic_form(m[0], m[1], grid, params),
                     sum(damping_norms(pw.State.stacked(m), exps, grid))
                     if damping_on else 0.0) for m in y]
        got = _step_norms(y, grid, params, exps, damping_on)
        alone = [_step_norms(m, grid, params, exps, damping_on)[0]
                 for m in y]
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    assert np.array(alone).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("v0", [0.3, float("nan")], ids=["finite", "nan"])
def test_first_record_is_make_record_of_initial_state(v0, ref_params):
    """simulate's t = 0 record, which also gives the ledger its Etot(0), is
    make_record of the initial state measured from its own total energy."""
    grid = pw.Grid1D(1.0, 41)
    exps = pw.validate_exponents(2, 2, 3, 3)
    state0 = pw.state_from_modes(grid, [v0], [0.2], [0.1], [-0.05])
    traj = pw.simulate(state0, ref_params, exps, grid,
                       pw.StepConfig(dt=1e-3), 0.01)
    expected = make_record(state0, ref_params, exps, grid, 0.0,
                           total_energy(state0, ref_params, exps, grid))
    assert np.array(astuple(traj.records[0])).tobytes() \
        == np.array(astuple(expected)).tobytes()

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import piezowave as pw
from piezowave.errors import BlowupDetected
from piezowave.integrator import _damping_solve_vec, damping_solve


# ---------------------------------------------------------------------------
# pointwise monotone damping solve

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
    r = rng.uniform(-50, 50, size=64)
    xs = _damping_solve_vec(r, 0.7, 3.2)
    for ri, xi in zip(r, xs):
        assert xi == pytest.approx(damping_solve(ri, 0.7, 3.2), abs=1e-10)


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

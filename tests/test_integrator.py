from dataclasses import astuple
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import piezowave as pw
from piezowave.diagnostics import (QUIET, damping_norms, make_record,
                                   total_energy)
from piezowave.grid import (grad_norm_sq, l2_norm_sq, quadratic_form,
                            row_power, second_difference, stiffness_solver,
                            tridiagonal_solver)
from piezowave.integrator import (NEWTON_MAX_ITER, NEWTON_TOL, _damping_newton,
                                  _settled, _step_norms, _twice_root)


# ---------------------------------------------------------------------------
# pointwise monotone damping solve

def solve_vec(r, a, m):
    """The root z of z + a|z|^(m-1)z = r on an array r: half of the map
    r -> 2z of `_twice_root`, which is exact unless the root is subnormal
    or 2z overflows."""
    return 0.5 * _twice_root(m, a)(r)


def damping_solve(r, a, m):
    """The root of x + a|x|^(m-1)x = r, from the kernel on one entry."""
    return float(solve_vec(np.array([r]), a, m)[0])


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
    xs = solve_vec(r, 0.7, 3.2)
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
    x = solve_vec(r, a, m)
    residual = x + a * np.abs(x) ** (m - 1.0) * x - r
    assert np.all(np.abs(residual) <= 1e-14 * (1.0 + np.abs(r)))
    assert np.array_equal(solve_vec(-r, a, m), -x)
    assert np.all(np.diff(x) > 0.0)


@pytest.mark.parametrize("m, a", CLOSED_FORM_CASES)
def test_damping_closed_form_matches_newton(m, a):
    """The Newton branch stops at a residual of NEWTON_TOL in log|x|,
    which bounds its relative error since F' >= 1 there, so it is within
    NEWTON_TOL (1 + |r|) of the root.  Three more Newton steps take it to
    roundoff, where it must agree with the closed form to 1e-13 relative."""
    r = CLOSED_FORM_R
    x = solve_vec(r, a, m)
    newton = _damping_newton(r, a, m)
    assert np.all(np.abs(x - newton) <= NEWTON_TOL * (1.0 + np.abs(r)))
    for _ in range(3):
        power = np.abs(newton) ** (m - 1.0)
        newton = newton - (newton + a * power * newton - r) \
            / (1.0 + a * m * power)
    assert np.all(np.abs(x - newton) <= 1e-13 * np.abs(newton))


def _per_entry_newton(r, a, m):
    """The log-form Newton solve of `_damping_newton` entry by entry: on
    the flattened entries, with index bookkeeping of the entries still
    busy, and NaN for those still busy after NEWTON_MAX_ITER steps.  A
    column a goes row by row, as the damping half-step takes it;
    NEWTON_MAX_ITER and NEWTON_TOL are read per call."""
    if np.ndim(a):
        return np.stack([_per_entry_newton(r[..., i, :], a[i, 0], m)
                         for i in range(len(a))], axis=-2)
    tol, budget = pw.integrator.NEWTON_TOL, pw.integrator.NEWTON_MAX_ITER
    rf = r.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        log_r, log_a = np.log(np.abs(rf)), np.log(a)
        u = np.minimum(log_r, (log_r - log_a) / m)
        todo = np.arange(rf.size)
        for k in range(budget + 1):
            ut = u[todo]
            q = np.exp(log_a + (m - 1.0) * ut)
            res = ut - log_r[todo] + np.log1p(q)
            busy = res > tol
            if not busy.any():
                break
            todo, ut, res, q = todo[busy], ut[busy], res[busy], q[busy]
            u[todo] = (ut - res / (1.0 + (m - 1.0) * (q / (1.0 + q)))
                       if k < budget else np.nan)
        x = np.copysign(np.minimum(np.exp(u), np.abs(rf)), rf)
    return (rf if a == 0.0 else x).reshape(r.shape)


def _newton_batch(rng):
    """A (3, 2, 201) batch of velocities with amplitudes from 1e-6 to 1e3
    entry by entry, a run of +-1e3 entries and a NaN entry."""
    amplitude = rng.choice([1e-6, 1e-2, 1.0, 1e2, 1e3], size=(3, 2, 201))
    r = amplitude * rng.standard_normal((3, 2, 201))
    r[2, 1, :6] = [1e3, -1e3, 1e3, -1e3, 1e3, -1e3]
    r[1, 0, 7] = np.nan
    return r


@pytest.mark.parametrize("a", [2.5e-4, 1e-3, 0.1])
@pytest.mark.parametrize("m", [1.5, 2.5, 4.0])
def test_masked_newton_matches_per_entry_newton(m, a, rng):
    """The whole-array Newton equals, bit for bit, the per-entry solve it
    replaced: on a batch, with a scalar a and with the column (a, 2.3a)
    against the row-by-row solve."""
    r = _newton_batch(rng)
    for coef in (a, np.array([[a], [2.3 * a]])):
        expected = _per_entry_newton(r, coef, m)
        got = _damping_newton(r, coef, m)
        assert np.array_equal(got, expected, equal_nan=True)
        assert np.array_equal(solve_vec(r, coef, m), expected,
                              equal_nan=True)
    # the NaN entry stays NaN, and every other entry is finite
    assert np.flatnonzero(~np.isfinite(got)).tolist() == [402 + 7]


def test_masked_newton_bisection_fallback_matches(rng, monkeypatch,
                                                  ref_params):
    """With two Newton steps allowed, the entries still moving come back
    NaN and the settled ones keep their Newton values: both equal the
    per-entry solve's bit for bit.  With no step allowed, every entry not
    already at its root comes back NaN from both, and a step marks the
    members they belong to as failed by their damping solve: not a member
    at rest, whose roots are exact zeros, nor a member whose velocity was
    NaN before the solve.  The joint solve of m1 = m2 and the row-by-row
    one of m1 != m2 both mark them."""
    r, a, m = _newton_batch(rng), np.array([[1e-3], [2.3e-3]]), 2.5
    newton = _damping_newton(r, a, m)
    monkeypatch.setattr(pw.integrator, "NEWTON_MAX_ITER", 2)
    expected = _per_entry_newton(r, a, m)
    got = _damping_newton(r, a, m)
    assert np.array_equal(got, expected, equal_nan=True)
    # the budget ran out: entries that the full one solves are NaN
    assert np.isnan(got).sum() > np.isnan(newton).sum()
    monkeypatch.setattr(pw.integrator, "NEWTON_MAX_ITER", 0)
    got = _damping_newton(r, a, m)
    assert np.array_equal(got, _per_entry_newton(r, a, m), equal_nan=True)
    assert np.isnan(got).sum() > np.isnan(r).sum()
    # at rest, moving, NaN, moving: a batch, and each member alone
    grid = pw.Grid1D(1.0, 41)
    states = [pw.state_from_modes(grid, [0.0], [0.0], [0.0], [0.0]),
              pw.state_from_modes(grid, [0.1], [0.2], [0.5], [-0.4]),
              pw.state_from_modes(grid, [0.1], [0.0], [np.nan], [0.0]),
              pw.state_from_modes(grid, [0.0], [0.0], [0.0], [3.0])]
    stepper = pw.Stepper(grid, ref_params, pw.StepConfig(dt=1e-3))
    y = np.array([s.y for s in states])
    for exps in (pw.validate_exponents(2.5, 2.5, 3, 3),
                 pw.validate_exponents(2.5, 4, 3, 3)):
        batch = stepper.step(pw.State.stacked(y), exps)
        assert batch.failed == {1: "damping_solve", 3: "damping_solve"}
        for row, state in enumerate(states):
            alone = stepper.step(state, exps)
            assert alone.failed == ({0: "damping_solve"}
                                    if row in batch.failed else {})
            assert alone.y.tobytes() == batch.y[row].tobytes()
        assert not batch.y[0].any() and np.isnan(batch.y[2:4, 2:]).any()


@pytest.mark.parametrize("m", [(2, 2), (2, 2.5), (3, 2.5), (2.5, 2.5),
                               (2.5, 2)], ids="m={0[0]},{0[1]}".format)
def test_infinite_velocity_is_a_blowup_not_a_failed_solve(m, ref_params):
    """An infinite v_t entry is no failed damping solve, whatever map the
    other row takes (the m = 2 map's root of inf is NaN): the step marks no
    member, and `simulate` ends the run as a blow-up."""
    grid = pw.Grid1D(1, 41)
    state = pw.state_from_modes(grid, [0.1], [0.1], [0.1], [0.1])
    state.y[2, 5] = np.inf
    exps = pw.validate_exponents(*m, 3, 3)
    cfg = pw.StepConfig(dt=1e-3)
    assert pw.Stepper(grid, ref_params, cfg).step(state, exps).failed == {}
    traj = pw.simulate(state, ref_params, exps, grid, cfg, 1.0)
    assert (traj.outcome, traj.trigger) == ("blowup", "grad_v_sq")


def test_bisection_fallback_reaches_a_root_far_below_r():
    """At m = 2.5, a = 1e-3/(4 * 2.3) and r = 6e88 the root is 1.25e37,
    which a Newton solve in x from r/(1 + a) did not reach in
    NEWTON_MAX_ITER steps, nor a bisection of [0, r] in 200 halvings.
    Newton in log|x| starts at min(|r|, (|r|/a)^(1/m)), the root's size,
    and reaches it."""
    a, m = 1e-3 / (4 * 2.3), 2.5
    r = np.array([6e88, -6e88])
    x = _damping_newton(r, a, m)
    residual = x + a * np.abs(x) ** (m - 1.0) * x - r
    assert np.all(np.abs(residual) <= 1e3 * NEWTON_TOL * (1.0 + np.abs(r)))
    assert x[0] == -x[1] and 1.2e37 < x[0] < 1.3e37


def test_newton_root_where_the_power_overflows():
    """At m = 4, a = 1.087e-4 and r = -+4.8e104 (a look-ahead step past a
    blow-up) |r|^3 overflows, which turned a Newton step in x into
    inf/inf = NaN; in log|x| the root, -+1.4496e27, is finite and met."""
    r, a, m = np.array([-4.8e104, 4.8e104]), 1.087e-4, 4.0
    x = _damping_newton(r, a, m)
    assert np.allclose(x, [-1.4496e27, 1.4496e27], rtol=1e-4, atol=0.0)
    residual = (x + a * np.abs(x / 1e27) ** (m - 1.0) * 1e81 * x - r) / r
    assert np.all(np.abs(residual) <= 2e-12)


# the sizing grid of the log-form Newton: exponents from near 1 to 1000,
# coefficients from the least subnormal to 1e300, |r| from 1e-320 to 1e308
GRID_M = [1.001, 1.01, 1.5, 2.5, 4.0, 4.9, 10.0, 100.0, 1000.0]
GRID_A = np.concatenate([[5e-324], 10.0 ** np.arange(-300, 301, 20)])
GRID_R = np.concatenate([-np.logspace(-320, 308, 315), np.logspace(-320, 308,
                                                                   315)])


@pytest.mark.parametrize("m", GRID_M)
def test_newton_root_over_the_sizing_grid(m, monkeypatch):
    """Within ten steps every root is finite, no larger than |r| and of the
    sign of r, with a relative residual, taken in extended precision, of
    at most 2e-12 wherever it is a normal float."""
    monkeypatch.setattr(pw.integrator, "NEWTON_MAX_ITER", 10)
    a, r = GRID_A[:, None], GRID_R[None, :]
    x = _damping_newton(r, a, m)
    assert np.isfinite(x).all()
    assert np.all(np.abs(x) <= np.abs(r))
    assert np.array_equal(np.signbit(x), np.signbit(r + 0.0 * a))
    xl, al, rl = (v.astype(np.longdouble) for v in (x, a, r))
    residual = (xl + al * np.abs(xl) ** (m - 1.0) * xl - rl) / rl
    normal = np.abs(x) >= np.finfo(float).tiny
    assert normal.mean() > 0.8
    assert np.abs(residual[normal]).max() <= 2e-12


# signed zeros, subnormals, huge entries, infinities and NaN, which the
# damping solves meet on states past a blow-up
EDGE_ENTRIES = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, np.inf, -np.inf,
                np.nan, 0.3, -2.0, 1e3]


@pytest.mark.parametrize("m", [1.0, 2.0, 3.0, 2.5])
def test_full_shape_coefficient_matches_its_column(m, rng):
    """The map of the Stepper's (2, nx) damping coefficient, and of the
    m = 3 constants `_twice_root` computes from it, gives that of the
    (2, 1) column bit for bit, on one member (2, nx) and on a batch
    (B, 2, nx): edge entries, and a row whose coefficient underflows to 0,
    which doubles each finite r bit for bit (at m = 3 its c2 is inf)."""
    nx = 41
    column = np.array([[1e-3 / (4 * 2.3)], [(0.25 * 1e-30) * (1.0 / 1e300)]])
    assert column[1, 0] == 0.0
    full = column.repeat(nx, 1)
    r = rng.standard_normal((3, 2, nx)) * 10.0 ** rng.uniform(-3, 3, (3, 2, nx))
    r[:, :, :len(EDGE_ENTRIES)] = EDGE_ENTRIES
    r[1, :, -len(EDGE_ENTRIES):] = EDGE_ENTRIES[::-1]
    with np.errstate(divide="ignore", **QUIET):
        maps = [_twice_root(m, a) for a in (full, column)]
        for y in (r[1], r):
            got, expected = (twice_root(y) for twice_root in maps)
            assert got.shape == y.shape
            assert got.tobytes() == expected.tobytes()
            finite = np.isfinite(y[..., 1, :])
            assert got[..., 1, :][finite].tobytes() == \
                (2.0 * y[..., 1, :][finite]).tobytes()


@pytest.mark.parametrize("exponents, per_half_step",
                         [((4, 4, 3, 3), 1), ((2.5, 4, 3, 3), 2)],
                         ids=["equal-newton", "mixed-newton"])
def test_damping_solves_per_half_step(exponents, per_half_step, ref_params,
                                      ref_grid, monkeypatch):
    """A damping half-step makes one `_twice_root` map call on both
    velocity rows of the whole batch where m1 = m2, and one call per row
    where they differ."""
    build, shapes = pw.integrator._twice_root, []

    def counted(m, a):
        twice_root = build(m, a)

        def call(r):
            shapes.append(r.shape)
            return twice_root(r)
        return call
    monkeypatch.setattr(pw.integrator, "_twice_root", counted)
    exps = pw.validate_exponents(*exponents)
    stepper = pw.Stepper(ref_grid, ref_params, pw.StepConfig(dt=1e-3))
    state = pw.State.stacked(np.array([
        pw.state_from_modes(ref_grid, [a], [0.5 * a], [0.1], [-a]).y
        for a in (0.2, 1.0, 5.0)]))
    for _ in range(5):
        state = stepper.step(state, exps)
    nx = ref_grid.nx
    assert len(shapes) == 5 * 2 * per_half_step
    assert set(shapes) == {(3, 2, nx) if per_half_step == 1 else (3, 1, nx)}


def test_mixed_linear_row_takes_no_newton(ref_params, ref_grid, rng,
                                          monkeypatch):
    """Mixed m = (1, 3) and (3, 1) steps map only the m = 3 row, one
    `_twice_root` call per half-step, and call no `_damping_newton`: the
    m = 1 row's half-step is kappa r, kappa = (1 - a)/(1 + a), in the maps.
    That kappa r equals 2z - r, z Newton's root of z + a z = r, to
    NEWTON_TOL relative, on the velocities of the steps' states and on
    extreme entries."""
    newton, build, calls = _damping_newton, _twice_root, []

    def recorded(m, a):
        twice_root = build(m, a)

        def call(r):
            calls.append((m, r.shape))
            return twice_root(r)
        return call

    def forbidden(*args):
        raise AssertionError("_damping_newton called")
    monkeypatch.setattr(pw.integrator, "_twice_root", recorded)
    monkeypatch.setattr(pw.integrator, "_damping_newton", forbidden)
    stepper = pw.Stepper(ref_grid, ref_params, pw.StepConfig(dt=1e-3))
    rows = []             # (r, a) of the m = 1 row
    for linear, exponents in [(0, (1, 3, 2, 3)), (1, (3, 1, 3, 2))]:
        exps = pw.validate_exponents(*exponents)
        state = pw.State.stacked(np.array([
            pw.state_from_modes(ref_grid, [a], [0.5 * a], [0.1], [-a]).y
            for a in (0.2, 1.0, 5.0)]))
        for _ in range(5):
            rows.append((state.y[:, 2 + linear],
                         stepper._damp_coef[linear, 0]))
            state = stepper.step(state, exps)
        rows.append((state.y[:, 2 + linear], stepper._damp_coef[linear, 0]))
    assert calls == 2 * 5 * 2 * [(3.0, (3, 1, ref_grid.nx))]
    extreme = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                               1e300, -1e-300], rng.standard_normal(50)])
    rows.append((extreme, 2.5e-4))
    with np.errstate(**QUIET):
        for r, a in rows:
            folded, z = (1.0 - a) / (1.0 + a) * r, newton(r, a, 1.0)
            finite = np.isfinite(r)
            assert np.array_equal(z[~finite], r[~finite], equal_nan=True)
            assert np.all(np.abs(folded - (2.0 * z - r))[finite]
                          <= NEWTON_TOL * np.abs(folded[finite]))


@pytest.mark.parametrize("material, dt, shape", [
    pytest.param(material, dt, shape, id=name + suffix)
    for name, material in [("reference", (1.0, 2.0, 1.0, 1.0, 1.0)),
                           ("asymmetric", (2.3, 5.0, 0.7, 1.9, 0.4))]
    for dt, shape, suffix in [(1e-3, (2,), ""), (1e-3, (3, 2), "-batch"),
                              (0.5, (2,), "-dt0.5"),
                              (0.5, (3, 2), "-dt0.5-batch"),
                              (1e-3, (1, 2), "-B1"), (1e-3, (8, 2), "-B8")]])
def test_decoupled_solve_matches_assembled_lu(material, dt, shape, ref_grid,
                                              rng):
    """The two symmetrized tridiagonal solves in the eigenbasis of C,
    composed with the Stepper's maps as V solve(V^-1 rhs), agree with a
    sparse LU solve of the assembled 2nx system I - (dt^2/4) A, for one
    member, a batch of one as `simulate` passes it, and batches of 3 and
    8.  The random rhs is nonzero at x = 0 and x = L, so the test checks
    that row 1 ignores the x = 0 entries and that the mirror-row scaling
    acts.  At dt = 0.5 the matrix is far from the identity (condition
    about 1e5), and the sparse LU solve alone is off by up to 9e-13; one
    refinement step with its residual in long double makes it a reference
    to roundoff."""
    params = pw.make_params(*material)
    stepper = pw.Stepper(ref_grid, params, pw.StepConfig(dt=dt))
    d2 = sp.diags(second_difference(ref_grid), [-1, 0, 1])
    gb = params.gamma * params.beta
    a = sp.bmat([[params.alpha / params.rho * d2, -gb / params.rho * d2],
                 [-gb / params.mu * d2, params.beta / params.mu * d2]])
    t = sp.csc_matrix(sp.identity(2 * ref_grid.nx) - (dt * dt / 4.0) * a)
    lu, t_long = spla.splu(t), t.toarray().astype(np.longdouble)
    rhs = rng.standard_normal(shape + (ref_grid.nx,))
    assert np.all(rhs[..., [0, -1]] != 0.0)
    expected = []
    for r in rhs.reshape(-1, 2 * ref_grid.nx):
        x = lu.solve(r)
        residual = r.astype(np.longdouble) - t_long @ x.astype(np.longdouble)
        expected.append(x + lu.solve(residual.astype(float)))
    expected = np.array(expected).reshape(rhs.shape)
    got = stepper._v @ stepper._solve(stepper._v_inv @ rhs)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("shape", [(2,), (3, 2)], ids=["one", "batch3"])
def test_solve_reads_no_clamped_node(shape, ref_params, ref_grid, rng):
    """The interior of a midpoint solve does not depend on the right-hand
    side's x = 0 entries: on nodes 1:, the solve of a random right-hand side
    equals, bit for bit, that of the same one zeroed at x = 0."""
    stepper = pw.Stepper(ref_grid, ref_params, pw.StepConfig(dt=1e-3))
    rhs = rng.standard_normal(shape + (ref_grid.nx,))
    clamped = rhs.copy()
    clamped[..., 0] = 0.0
    got, want = stepper._solve(rhs.copy()), stepper._solve(clamped)
    assert np.array_equal(got[..., 1:], want[..., 1:])


@pytest.mark.parametrize("shape", [(2,), (3, 2)], ids=["one", "batch3"])
def test_solve_overwrites_and_returns_its_right_hand_side(shape, ref_params,
                                                         ref_grid, rng):
    """`Stepper._solve` writes the solution into its right-hand side, a
    fresh (2, nx) or (3, 2, nx), and returns that array, and the solution
    equals, bit for bit, one `tridiagonal_solver` solve per member and
    eigen-system of its right-hand side with the mirror row halved.  A
    reshape in the solve that copied would drop the solution silently."""
    cfg = pw.StepConfig(dt=1e-3)
    stepper = pw.Stepper(ref_grid, ref_params, cfg)
    reference = _FourArrayStep(ref_grid, ref_params, cfg)
    rhs = rng.standard_normal(shape + (ref_grid.nx,))
    want = np.array([reference.solve_w(r)
                     for r in rhs.reshape(-1, 2, ref_grid.nx)])
    got = stepper._solve(rhs)
    assert got is rhs
    assert np.array_equal(got, want.reshape(shape + (ref_grid.nx,)))


@pytest.mark.parametrize("scheme", pw.integrator.SCHEMES)
def test_sourceless_energy_drifts_at_roundoff(scheme):
    """With sources and damping off the step conserves the quadratic
    energy E to roundoff, and the velocity rows, (4/dt) k (V w - x) -
    k^2 x_t with the cancellation inside one matmul, lose no more digits
    than 4 eps |x| / dt a step: on the asymmetric material, nx = 81,
    v0 = (0.8, 0.1), p0 = 0.3, v1 = 0.5, p1 = -0.4, E drifts by at most
    1e-8 of E0 over t <= 0.5 at dt = 1e-4 (measured 2.4e-9)."""
    params = pw.make_params(*MATERIALS[1])
    grid = pw.Grid1D(1.0, 81)
    cfg = pw.StepConfig(dt=1e-4, scheme=scheme, damping_on=False,
                        sources_on=False)
    state = pw.state_from_modes(grid, [0.8, 0.1], [0.3], [0.5], [-0.4])
    traj = pw.simulate(state, params, pw.validate_exponents(1, 1, 2, 2),
                       grid, cfg, 0.5)
    e = np.array([r.E for r in traj.records])
    assert len(e) == 5001
    assert np.abs(e - e[0]).max() <= 1e-8 * e[0]


@pytest.mark.parametrize("exponents", [(1, 1, 2, 2), (2, 2, 3, 3),
                                       (3, 3, 3, 3), (2.5, 2.5, 3, 3)],
                         ids=["m1-folded", "m2", "m3", "m2.5-newton"])
def test_step_reads_no_clamped_node(exponents, ref_params, ref_grid):
    """The interior of a semi-implicit step does not depend on the state's
    x = 0 entries: on nodes 1:, the step of a state equals, bit for bit,
    the step of that state with other values at x = 0.  Implicit-midpoint
    is left out: its convergence test reads node 0 too, so the number of
    iterates, and so the interior, may differ."""
    exps = pw.validate_exponents(*exponents)
    stepper = pw.Stepper(ref_grid, ref_params, pw.StepConfig(dt=1e-3))
    state = pw.state_from_modes(ref_grid, [0.3], [0.2], [0.1], [-0.05])
    moved = state.copy()
    moved.y[:, 0] = [0.7, -0.4, 1.3, 0.2]
    got, want = stepper.step(moved, exps), stepper.step(state, exps)
    assert np.array_equal(got.y[:, 1:], want.y[:, 1:])


def test_singular_tridiagonal_factor_is_a_value_error(ref_params, ref_grid,
                                                     monkeypatch):
    """A nonzero dpttrf info (a pivot <= 0: the matrix is not positive
    definite) is reported, not ignored, by both users of the one
    tridiagonal factorization."""
    def dpttrf(d, e):
        return d, e, 3

    monkeypatch.setattr(pw.grid.lapack, "dpttrf", dpttrf)
    with pytest.raises(pw.InvalidArgument, match="not positive definite"):
        pw.Stepper(ref_grid, ref_params, pw.StepConfig(dt=1e-3))
    with pytest.raises(pw.InvalidArgument, match="not positive definite"):
        stiffness_solver(ref_grid)


# ---------------------------------------------------------------------------
# the stacked layout against a four-array reference step

class _FourArrayStep:
    """The Strang step on separate v, p, vt and pt arrays, with one
    symmetric tridiagonal solve per eigen-system: the algorithm and the
    arithmetic order that the stacked Stepper must reproduce bit for bit.
    Each system I - (dt^2/4) lambda_k D2 is solved with its mirror row at
    x = L halved, right-hand side included.  The conservative substep
    solves in the eigen coordinates w = V^-1 u, from base_w = V^-1 [I,
    (dt/2) I] y and the source through V^-1 diag(dt^2/4 (1/rho, 1/mu)),
    and builds the new state (x + 2D, (4/dt) D - xt), D = V w - x, as
    OV w + G (v, p, vt, pt) with OUT = [2I; (4/dt) I], OV = OUT V and
    G = diag(1, 1, -1, -1) - [OUT | 0]; implicit-midpoint, which forms
    the midpoint xm = V w to iterate, takes OUT xm for OV w.  With damping
    on, each velocity row with m = 1 has its two damping half-steps, each
    xt -> kappa xt with kappa = (1 - a)/(1 + a), folded into that
    substep: base_w takes kappa xt, the predicted midpoint
    x + ((dt/2) kappa) xt, and OUT and G take (4/dt) kappa for 4/dt and
    -kappa^2 for -1; only the other rows take half-steps.
    With predicted=False, implicit-midpoint starts from the
    source at the step start instead of at the predicted midpoint.  With
    legacy=True it takes the arithmetic the Stepper had before: the
    right-hand side x + (dt/2) xt + (dt^2/4) f / (rho, mu) through V^-1,
    the solve, V, the new state (2 xm - x, 4 (xm - x) / dt - xt), and a
    damping half-step on each side of it for every m."""

    def __init__(self, grid, params, cfg, predicted=True, legacy=False):
        self.params, self.cfg, self.predicted = params, cfg, predicted
        self.legacy = legacy
        gb = params.gamma * params.beta
        _, main, upper = second_difference(grid)
        d = 1.0 / np.sqrt(np.array([params.rho, params.mu]))
        dsd = d[:, None] * np.array([[params.alpha, -gb],
                                     [-gb, params.beta]]) * d
        lam, q = np.linalg.eigh(dsd)
        c = cfg.dt ** 2 / 4.0
        self.solvers = []
        for lk in lam:
            diag = 1.0 - c * (lk * main)
            diag[-1] *= 0.5
            self.solvers.append(tridiagonal_solver(diag, -c * (lk * upper)))
        self.v, self.v_inv = d[:, None] * q, q.T / d
        dt = cfg.dt
        self.into_f = self.v_inv * ((dt * dt / 4.0)
                                    / np.array([[params.rho], [params.mu]])).T
        a = [0.25 * dt * (1.0 / params.rho), 0.25 * dt * (1.0 / params.mu)]
        self.kappa = [(1.0 - ak) / (1.0 + ak) for ak in a]

    def solve_w(self, w):
        out = []
        for solve, wk in zip(self.solvers, w):
            r = wk.copy()
            r[-1] *= 0.5
            out.append(solve(r))
        return np.array(out)

    def conservative(self, v, p, vt, pt, exps, kappa=(1.0, 1.0)):
        dt, pr, on = self.cfg.dt, self.params, self.cfg.sources_on
        k1, k2 = kappa
        into = np.hstack([self.v_inv, (0.5 * dt) * self.v_inv
                          * np.array([[k1, k2]])])
        base_w = into @ np.array([v, p, vt, pt])

        def source(v, p):
            return (np.abs(v) ** (exps.n1 - 1.0) * v,
                    np.abs(p) ** (exps.n2 - 1.0) * p)

        def solve(f):             # w; f is None with the sources off
            if self.legacy:
                f1, f2 = (0.0, 0.0) if f is None else f
                return self.solve_w(self.v_inv @ np.array([
                    v + 0.5 * dt * vt + (dt * dt / 4.0) * f1 / pr.rho,
                    p + 0.5 * dt * pt + (dt * dt / 4.0) * f2 / pr.mu]))
            rhs = base_w if f is None else base_w + self.into_f @ np.array(f)
            return self.solve_w(rhs)

        def midpoint(f):
            return self.v @ solve(f)

        iterate = on and self.cfg.scheme == "implicit-midpoint"
        # implicit-midpoint starts from the source at the predicted
        # midpoint, semi-implicit takes it at the step start
        first = ((v + ((0.5 * dt) * k1) * vt, p + ((0.5 * dt) * k2) * pt)
                 if iterate and self.predicted else (v, p))
        w = solve(source(*first) if on else None)
        vm, pm = self.v @ w
        if iterate:
            for _ in range(NEWTON_MAX_ITER - 1):
                vm_new, pm_new = midpoint(source(vm, pm))
                delta = max(np.max(np.abs(vm_new - vm)),
                            np.max(np.abs(pm_new - pm)))
                vm, pm = vm_new, pm_new
                if not delta > NEWTON_TOL * (1.0 + np.max(np.abs(vm))):
                    break
        if self.legacy:
            return (2.0 * vm - v, 2.0 * pm - p, 4.0 * (vm - v) / dt - vt,
                    4.0 * (pm - p) / dt - pt)
        out = np.concatenate([2.0 * np.eye(2),
                              (4.0 / dt) * np.diag([k1, k2])])
        g = np.array([[-1.0, 0.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0],
                      [-(4.0 / dt) * k1, 0.0, -(k1 * k1), 0.0],
                      [0.0, -(4.0 / dt) * k2, 0.0, -(k2 * k2)]])
        new = out @ np.array([vm, pm]) if iterate else (out @ self.v) @ w
        return tuple(new + g @ np.array([v, p, vt, pt]))

    def folded(self, m):
        """Whether a velocity row with exponent m takes its half-steps as
        kappa in the conservative substep."""
        return m == 1.0 and not self.legacy

    def damp(self, v, p, vt, pt, exps):
        a = 0.25 * self.cfg.dt
        vel = [x if self.folded(m) else _twice_root(m, a * (1.0 / c))(x) - x
               for x, m, c in ((vt, exps.m1, self.params.rho),
                               (pt, exps.m2, self.params.mu))]
        return v, p, *vel

    def step(self, fields, exps):
        if not self.cfg.damping_on:
            return self.conservative(*fields, exps)
        kappa = [k if self.folded(m) else 1.0
                 for k, m in zip(self.kappa, (exps.m1, exps.m2))]
        fields = self.conservative(*self.damp(*fields, exps), exps, kappa)
        return self.damp(*fields, exps)


MATERIALS = [(1.0, 2.0, 1.0, 1.0, 1.0), (2.3, 5.0, 0.7, 1.9, 0.4)]
STEP_EXPONENTS = dict(
    argnames="exponents",
    ids=["m1", "m2", "m3", "m4-newton", "mixed", "mixed-p-linear"],
    argvalues=[(1, 1, 2, 2), (2, 2, 3, 3), (3, 3, 3, 3), (4, 4, 3, 3),
               (1, 3, 2, 3), (3, 1, 3, 2)])


@pytest.mark.parametrize("material", MATERIALS,
                         ids=["reference", "asymmetric"])
@pytest.mark.parametrize(**STEP_EXPONENTS)
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


@pytest.mark.parametrize("material", MATERIALS,
                         ids=["reference", "asymmetric"])
@pytest.mark.parametrize(**STEP_EXPONENTS)
@pytest.mark.parametrize("scheme", pw.integrator.SCHEMES)
def test_eigenbasis_step_matches_legacy_arithmetic(scheme, exponents,
                                                   material, ref_grid):
    """The conservative substep in the eigen coordinates changes only the
    rounding: after 50 steps the Stepper agrees with the arithmetic it
    replaced to 1e-9 relative in the max norm."""
    params = pw.make_params(*material)
    exps = pw.validate_exponents(*exponents)
    cfg = pw.StepConfig(dt=1e-3, scheme=scheme)
    stepper = pw.Stepper(ref_grid, params, cfg)
    legacy = _FourArrayStep(ref_grid, params, cfg, legacy=True)
    state = pw.state_from_modes(ref_grid, [0.4, -0.1], [0.3], [0.5, 0.2],
                                [-0.3])
    fields = tuple(x.copy() for x in (state.v, state.p, state.vt, state.pt))
    for _ in range(50):
        state = stepper.step(state, exps)
        fields = legacy.step(fields, exps)
    assert (np.abs(state.y - np.array(fields)).max()
            <= 1e-9 * np.abs(state.y).max())


def _mode_map(k, grid, params, dt, damped):
    """M_k = K R_k K, one m = 1 step with sources off on s_k (x) c, where
    s_k = sin((k - 1/2) pi x / L) has D2 s_k = -mu_k s_k on the grid, the
    mirror closure at x = L included.  R_k = (I - (dt/2) A_k)^-1
    (I + (dt/2) A_k) is the implicit midpoint map of c' = A_k c,
    A_k = [[0, I], [-mu_k C, 0]], C = diag(1/rho, 1/mu) [[alpha, -gb],
    [-gb, beta]], and K = diag(1, 1, kappa1, kappa2) the damping half-step,
    kappa_i = (1 - a_i)/(1 + a_i), a = (dt/(4 rho), dt/(4 mu)); K = I
    undamped."""
    mu_k = (4.0 / grid.dx ** 2
            * np.sin((k - 0.5) * np.pi * grid.dx / (2.0 * grid.L)) ** 2)
    gb = params.gamma * params.beta
    c = (np.diag([1.0 / params.rho, 1.0 / params.mu])
         @ np.array([[params.alpha, -gb], [-gb, params.beta]]))
    zero = np.zeros((2, 2))
    a_k = np.block([[zero, np.eye(2)], [-mu_k * c, zero]])
    r_k = np.linalg.solve(np.eye(4) - 0.5 * dt * a_k,
                          np.eye(4) + 0.5 * dt * a_k)
    a = dt / (4.0 * np.array([params.rho, params.mu]))
    kappa = np.diag(np.concatenate(
        [[1.0, 1.0], (1.0 - a) / (1.0 + a) if damped else [1.0, 1.0]]))
    return kappa @ r_k @ kappa


# (mode k, nx, dt, damped, steps): modes 1, 3 and 150 (at nx = 201),
# damped and undamped, dt = 1e-3 and 0.5, then one step, 1,000 steps and
# two more modes and dts
MODE_CASES = ([(k, 201 if k == 150 else 81, dt, damped, 10)
               for k in (1, 3, 150) for damped in (True, False)
               for dt in (1e-3, 0.5)]
              + [(3, 81, 1e-3, True, 1), (3, 81, 1e-3, True, 1000),
                 (1, 81, 1e-3, False, 1000), (5, 81, 0.5, True, 10),
                 (150, 201, 1e-2, False, 10)])


@pytest.mark.parametrize("mode, nx, dt, damped, steps", MODE_CASES)
@pytest.mark.parametrize("scheme", pw.integrator.SCHEMES)
def test_step_on_a_sine_mode_is_its_mode_map(scheme, mode, nx, dt, damped,
                                             steps):
    """n steps of s_k (x) c with m = 1 and sources off give s_k (x) M_k^n c
    on the asymmetric material (kappa1 != kappa2), to c n eps / dt relative
    to the largest entry: the velocity update (4/dt)(xm - x) loses digits
    as eps/dt.  c = 100 is three times the largest error measured in these
    units (32, mode 1 at dt = 0.5, where the solve's conditioning, not 1/dt,
    sets it)."""
    params = pw.make_params(*MATERIALS[1])
    grid = pw.Grid1D(1.0, nx)
    exps = pw.validate_exponents(1, 1, 2, 2)
    cfg = pw.StepConfig(dt=dt, scheme=scheme, damping_on=damped,
                        sources_on=False)
    s_k = np.sin((mode - 0.5) * np.pi * grid.nodes / grid.L)
    c = np.array([0.3, -0.2, 0.5, 0.7])
    state = pw.grid.State.stacked(np.outer(c, s_k))
    stepper = pw.Stepper(grid, params, cfg)
    for _ in range(steps):
        state = stepper.step(state, exps)
    m_k = _mode_map(mode, grid, params, dt, damped)
    want = np.outer(np.linalg.matrix_power(m_k, steps) @ c, s_k)
    err = np.abs(state.y - want).max() / np.abs(want).max()
    assert err <= 100.0 * steps * np.finfo(float).eps / dt


@pytest.mark.parametrize("material", MATERIALS,
                         ids=["reference", "asymmetric"])
@pytest.mark.parametrize("exponents", [(1, 1, 2, 2), (4, 4, 3, 3),
                                       (1, 3, 2, 3)],
                         ids=["m1", "m4-newton", "mixed"])
def test_predicted_start_keeps_the_fixed_point(exponents, material,
                                               ref_grid):
    """implicit-midpoint started from the source at the step start, as it
    once was, converges to the same midpoint: after 50 steps the states
    agree to 1e-10 relative in the max norm."""
    params = pw.make_params(*material)
    exps = pw.validate_exponents(*exponents)
    cfg = pw.StepConfig(dt=1e-3, scheme="implicit-midpoint")
    stepper = pw.Stepper(ref_grid, params, cfg)
    old_start = _FourArrayStep(ref_grid, params, cfg, predicted=False)
    state = pw.state_from_modes(ref_grid, [1.0, -0.1], [0.3], [0.5, 0.2],
                                [-0.3])
    fields = tuple(x.copy() for x in (state.v, state.p, state.vt, state.pt))
    for _ in range(50):
        state = stepper.step(state, exps)
        fields = old_start.step(fields, exps)
    assert not np.array_equal(state.y, np.array(fields))
    assert (np.abs(state.y - np.array(fields)).max()
            <= 1e-10 * np.abs(state.y).max())


# the v0 of the `sweep-midpoint-m1` workload's pool, p0 = 0, at rest
SWEEP_V0 = [0.05, 0.2, 0.5, 1.0, 2.0, 36.0, 40.0, 45.0]


@pytest.mark.parametrize("exponents, scheme, v0, steps, rows", [
    pytest.param((1, 1, 2, 2), "semi-implicit", [1.0], 200, [1],
                 id="m1-semi-implicit-1"),
    pytest.param((1, 1, 2, 2), "implicit-midpoint", [1.0], 200, [1, 1],
                 id="m1-implicit-midpoint-2"),
    pytest.param((1, 3, 2, 3), "semi-implicit", [1.0], 200, [1],
                 id="mixed-semi-implicit-1"),
    pytest.param((1, 3, 2, 3), "implicit-midpoint", [1.0], 200, [1, 1],
                 id="mixed-implicit-midpoint-2"),
    pytest.param((1, 1, 2, 2), "implicit-midpoint", SWEEP_V0, 40, [8, 8, 3],
                 id="m1-implicit-midpoint-sweep8")])
def test_midpoint_solves_per_step(exponents, scheme, v0, steps, rows,
                                  ref_params, ref_grid):
    """The batch rows of each midpoint solve of a step, the same on every
    step.  From v0 = 1, semi-implicit makes one solve per step, and
    implicit-midpoint, started from the predicted midpoint, two: the first
    iterate and the solve that finds it settled.  On the 8 members of the
    sweep pool the three with v0 >= 36 are still moving after the first
    iterate, so each step solves the 8 twice and those 3 once more; a test
    that let a batch stop while some member still moves would end at two."""
    exps = pw.validate_exponents(*exponents)
    stepper = pw.Stepper(ref_grid, ref_params,
                         pw.StepConfig(dt=1e-3, scheme=scheme))
    solve, calls = stepper._solve, []

    def counted(rhs):
        calls.append(rhs.reshape(-1, 2, ref_grid.nx).shape[0])
        return solve(rhs)
    stepper._solve = counted
    y = [pw.state_from_modes(ref_grid, [a], [0.0], [0.0], [0.0]).y
         for a in v0]
    state = pw.State.stacked(y[0] if len(y) == 1 else np.array(y))
    for _ in range(steps):
        state = stepper.step(state, exps)
    assert calls == rows * steps


def test_linear_damping_takes_no_damping_solve(ref_params, ref_grid,
                                              monkeypatch):
    """With m1 = m2 = 1 the damping half-steps are folded into the maps of
    the conservative substep, so a damped step makes no damping solve;
    with m = (1, 3) the m = 3 row still takes its own."""
    def refuse(*args):
        raise AssertionError("damping solve called")
    monkeypatch.setattr(pw.integrator, "_twice_root", refuse)
    state = pw.state_from_modes(ref_grid, [0.3], [0.2], [0.1], [-0.05])
    for scheme in pw.integrator.SCHEMES:
        stepper = pw.Stepper(ref_grid, ref_params,
                             pw.StepConfig(dt=1e-3, scheme=scheme))
        stepper.step(state, pw.validate_exponents(1, 1, 2, 2))
        with pytest.raises(AssertionError, match="damping solve"):
            stepper.step(state, pw.validate_exponents(1, 3, 2, 3))


@pytest.mark.parametrize("damping", [(1, 1), (2, 2), (3, 3), (4, 4), (3, 2)],
                         ids=["m1", "m2", "m3", "m4-newton", "mixed"])
def test_underflowed_damping_coefficient_leaves_velocity_undamped(damping):
    """rho = mu = 1e300 at dt = 1e-30 make both coefficients dt/(4 rho)
    underflow to 0: on every damping path (kappa = 1 in the maps for m = 1,
    the joint closed forms, the joint Newton, the per-row solves) the
    damped step equals the undamped step bit for bit, and keeps the
    velocities of a state with no displacement and no stiffness to act on
    them."""
    params = pw.make_params(1e300, 2.0, 1.0, 1.0, 1e300)
    grid = pw.Grid1D(1.0, 41)
    exps = pw.validate_exponents(*damping, 2, 2)
    state = pw.state_from_modes(grid, [0.0], [0.0], [0.1], [-0.05])
    damped, undamped = (pw.Stepper(grid, params, pw.StepConfig(
        dt=1e-30, damping_on=on)) for on in (True, False))
    assert not damped._damp_coef.any()
    a, b = state, state
    for _ in range(3):
        a, b = damped.step(a, exps), undamped.step(b, exps)
    assert np.array_equal(a.y, b.y)
    assert np.allclose(a.y[2:], state.y[2:], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("members", [1, 3], ids=["one", "batch3"])
@pytest.mark.parametrize("sources_on", [True, False],
                         ids=["sources", "sourceless"])
@pytest.mark.parametrize("damping_on", [True, False],
                         ids=["damped", "undamped"])
@pytest.mark.parametrize("exponents", [(1, 1, 2, 2), (3, 3, 3, 3),
                                       (1, 3, 2, 3), (2, 2, 3, 3)],
                         ids=["m1", "m3", "mixed", "m2"])
@pytest.mark.parametrize("scheme", pw.integrator.SCHEMES)
def test_step_leaves_its_input_alone(scheme, exponents, damping_on,
                                     sources_on, members):
    """The midpoint solve and the damping half-steps write into arrays of
    their own: stepping one input twice gives the same bits twice, in an
    array apart from the input, and the input keeps its bits."""
    params = pw.make_params(*MATERIALS[1])
    grid = pw.Grid1D(1.0, 41)
    exps = pw.validate_exponents(*exponents)
    stepper = pw.Stepper(grid, params, pw.StepConfig(
        dt=1e-3, scheme=scheme, damping_on=damping_on,
        sources_on=sources_on))
    y = np.array([pw.state_from_modes(grid, [a, 0.1], [-0.5 * a], [a],
                                      [0.2, a]).y
                  for a in (0.3, 2.0, -0.05)[:members]])
    state = pw.State.stacked(y[0] if members == 1 else y)
    before = state.y.copy()
    first, second = stepper.step(state, exps), stepper.step(state, exps)
    assert first.y.tobytes() == second.y.tobytes()
    assert state.y.tobytes() == before.tobytes()
    assert not np.shares_memory(first.y, state.y)
    assert not np.shares_memory(first.y, second.y)


# exponents that take each damping path of a step: m = 1 folded into the
# maps on both rows, the joint closed forms m = 2 and m = 3, the joint
# Newton solve, m = 1 folded on the v row or on the p row with the other
# row's closed form, and the per-row Newton solves
PATH_EXPONENTS = [(1, 1, 2, 2), (2, 2, 3, 3), (3, 3, 3, 3), (2.5, 2.5, 3, 3),
                  (1, 3, 2, 3), (3, 1, 3, 2), (2.5, 4, 3, 2)]


@pytest.mark.parametrize("members", [1, 2], ids=["one", "batch2"])
@pytest.mark.parametrize("damping_on, sources_on",
                         [(True, True), (False, True), (True, False)],
                         ids=["full", "undamped", "sourceless"])
@pytest.mark.parametrize("scheme", pw.integrator.SCHEMES)
def test_a_stepper_follows_its_exponents(scheme, damping_on, sources_on,
                                         members, monkeypatch):
    """One Stepper stepped with Exponents objects that change between
    steps, among them two equal but distinct objects, gives each step's
    state bit for bit as a fresh Stepper does, and builds its step once
    for each run of steps on one object."""
    build, builds = pw.Stepper._build, []

    def counted(self, exps):
        builds.append(self)
        return build(self, exps)
    monkeypatch.setattr(pw.Stepper, "_build", counted)
    grid = pw.Grid1D(1.0, 41)
    params = pw.make_params(*MATERIALS[1])
    cfg = pw.StepConfig(dt=1e-3, scheme=scheme, damping_on=damping_on,
                        sources_on=sources_on)
    exps = [pw.validate_exponents(*e) for e in PATH_EXPONENTS]
    twin = pw.validate_exponents(*PATH_EXPONENTS[2])
    assert twin == exps[2] and twin is not exps[2]
    runs = exps + [twin, exps[2]] + exps[::-1]
    y = np.array([pw.state_from_modes(grid, [a, 0.1], [0.5 * a], [0.5],
                                      [-0.4 * a]).y
                  for a in (0.3, 1.5)[:members]])
    state = pw.State.stacked(y[0] if members == 1 else y)
    stepper = pw.Stepper(grid, params, cfg)
    for e in runs:
        for _ in range(2):
            expected = pw.Stepper(grid, params, cfg).step(state, e)
            state = stepper.step(state, e)
            assert state.y.tobytes() == expected.y.tobytes()
            assert state.failed == expected.failed == {}
    assert builds.count(stepper) == len(runs)


def test_doubled_quadratic_half_step_is_twice_the_root(rng):
    """The m = 2 half-step takes 2z as r/d, d = 1/4 + sqrt(1/16 + (a/4)|r|),
    the map of `_twice_root`: it equals (z + z) - r, z the root in its usual
    form r/(1/2 + sqrt(1/4 + a|r|)), bit for bit, for a = 0 and a from
    1e-300 to 1e10 and velocities r of every binade up to 1e300,
    subnormals too, with signed zeros, infinities and NaN.  (A subnormal a
    with |r| near 1e305, or a >= 1e300 with |r| below about 1e-307, can
    differ in the last bit: there a/4 or z is subnormal.)  Half of the map,
    (r/d)/2, is that z where a|r| is finite; where only a|r|/4 is, the
    usual form loses the root to 0, and (r/d)/2 solves x + a|x|x = r to
    roundoff (past that both give 0)."""
    a = np.concatenate([[0.0, 2.5e-4, 1.0], np.logspace(-300, 10, 29)])
    grid = pw.Grid1D(1.0, len(a) // 2)
    stepper = pw.Stepper(grid, pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0),
                         pw.StepConfig(dt=1e-3))
    stepper._damp_coef = a.reshape(2, -1)
    half = stepper._damp({0: 2.0, 1: 2.0})
    r = np.ldexp(rng.uniform(0.5, 1.0, 4000), rng.integers(-1074, 997, 4000))
    r = np.concatenate([r, -r, [0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                                1e300, -1e300, np.inf, -np.inf, np.nan]])
    y = np.zeros((len(r), 4, grid.nx))
    y[:, 2:] = r[:, None, None]
    with np.errstate(**QUIET):
        vel = y[:, 2:].copy()
        got = half(y, {})[:, 2:]
        ax = stepper._damp_coef * np.abs(vel)
        quarter = (0.25 * stepper._damp_coef) * np.abs(vel)
        z = vel / (0.5 + np.sqrt(0.25 + ax))
        expected = (z + z) - vel
        solved = solve_vec(vel, stepper._damp_coef, 2.0)
    assert np.array_equal(got, expected, equal_nan=True)
    finite = np.isfinite(expected)
    assert got[finite].tobytes() == expected[finite].tobytes()
    usual = ax < np.inf
    assert np.array_equal(solved[usual], z[usual], equal_nan=True)
    assert solved[usual & finite].tobytes() == z[usual & finite].tobytes()
    lost = ~usual & (quarter < np.inf)
    assert lost.any() and not z[lost].any()
    root, coef = solved[lost], np.broadcast_to(stepper._damp_coef, vel.shape)
    assert np.allclose(root + coef[lost] * np.abs(root) * root, vel[lost],
                       rtol=1e-14, atol=0.0)


def test_cubic_half_step_map_is_its_formula(rng):
    """The m = 3 map of `_twice_root`, whose constants are arrays, equals
    bit for bit its formula written with Python-float constants: 2z, z =
    copysign(min(c2 sinh(arcsinh(c1 |r|) / 3), |r|), r), c1 = 1.5 sqrt(3a)
    and c2 = 2 / sqrt(3a), for a = 0, 2.5e-4, 1 and 1e3 and velocities r
    of every binade, subnormals too, with signed zeros, infinities and
    NaN; where a = 0, each finite r comes back doubled."""
    a = np.array([[0.0], [2.5e-4], [1.0], [1e3]])
    r = np.ldexp(rng.uniform(0.5, 1.0, (2, 2098)), np.arange(-1073, 1025))
    r = np.concatenate([r.ravel(), -r.ravel(), [0.0, -0.0, np.inf, -np.inf,
                                                np.nan]])
    r = np.tile(r, (len(a), 1))
    with np.errstate(divide="ignore", **QUIET):
        got = _twice_root(3.0, a)(r)
        k = np.sqrt(3.0 * a)
        c1, c2 = 1.5 * k, 2.0 / k
        ar = np.abs(r)
        z = np.copysign(np.fmin(np.sinh(np.arcsinh(c1 * ar) / 3.0) * c2,
                                ar), r)
        expected, doubled = z + z, 2.0 * r[0]
    assert got.tobytes() == expected.tobytes()
    finite = np.isfinite(r[0])
    assert got[0, finite].tobytes() == doubled[finite].tobytes()


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


@pytest.mark.parametrize("damping_on", [True, False],
                         ids=["damped", "undamped"])
def test_simulate_builds_its_power_maps_a_fixed_number_of_times(
        damping_on, ref_params, ref_grid, monkeypatch):
    """A `simulate` call turns its exponents into `row_power` maps a fixed
    number of times, whatever its step count: runs of 64 and 640 steps, a
    record every 10, make equally many `row_power` calls, counted in the
    grid, integrator and diagnostics modules.  Mixed exponents, so that
    each map of two rows builds its two one-row maps too."""
    build, calls = pw.grid.row_power, []

    def counted(q1, q2):
        calls.append((q1, q2))
        return build(q1, q2)
    for module in (pw.grid, pw.integrator, pw.diagnostics):
        monkeypatch.setattr(module, "row_power", counted)
    exps = pw.validate_exponents(3, 2, 3, 2)
    cfg = pw.StepConfig(dt=1e-3, damping_on=damping_on)
    counts = []
    for steps in (64, 640):
        calls.clear()
        traj = pw.simulate(_small_state(ref_grid), ref_params, exps,
                           ref_grid, cfg, steps * 1e-3, record_every=10)
        assert traj.outcome == "completed"
        assert len(traj.records) == len(range(0, steps, 10)) + 1  # t_end
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


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


# members: two that complete, NaN initial data (blow-up at t = 0, so the
# batch shrinks before its first step), and an amplitude that blows up
# later, so the batch shrinks again mid-run
BATCH_AMPLITUDES = [0.05, 40.0, 2.0, float("nan"), 100.0]


@pytest.mark.parametrize("exponents", [(1, 1, 2, 2), (4, 1, 3, 2)],
                         ids=["m1", "mixed-newton-m4"])
@pytest.mark.parametrize("order", [[0], [4, 1], [0, 1, 2, 3, 4],
                                   [4, 2, 0, 3, 1], [0, 1, 2, 3, 4, 0, 2, 1]],
                         ids=["B1", "B2", "B5", "B5-permuted", "B8-repeated"])
def test_batch_member_equals_its_single_run(order, exponents):
    """A member's trajectory from a batched simulate equals, bit for bit,
    its own single-member simulate, whatever else is in the batch and in
    whatever order, also while a batch of 8 shrinks to 7 and then 6."""
    params = pw.make_params(*MATERIALS[1])
    exps = pw.validate_exponents(*exponents)
    grid = pw.Grid1D(1.0, 41)
    cfg = pw.StepConfig(dt=1e-3, scheme="implicit-midpoint")
    states = [pw.state_from_modes(grid, [a], [0.5 * a], [0.1], [0.0])
              for a in BATCH_AMPLITUDES]
    single = [pw.simulate(s, params, exps, grid, cfg, 0.3, 10)
              for s in states]
    assert [t.outcome for t in single] == ["completed"] * 3 + ["blowup"] * 2
    assert 0.0 == single[3].t_detect < single[4].t_detect
    batch = pw.simulate(pw.State.stacked(np.array([states[i].y
                                                   for i in order])),
                        params, exps, grid, cfg, 0.3, 10)
    assert [_bits(t) for t in batch] == [_bits(single[i]) for i in order]


def _norms(state, grid, params):
    """(grad_v_sq, Q) of a state, the norms that the blow-up check reads."""
    return (grad_norm_sq(state.v, grid),
            quadratic_form(state.v, state.p, grid, params))


def test_batched_step_names_each_blown_member(ref_params, ref_grid):
    """simulate on a batch names the trigger and time of every member that
    crosses the cutoff on the same step, and the member below it
    completes.  The blown members start under the cutoff; their initial
    velocity along the mode takes them past it on step 1."""
    exps = pw.validate_exponents(1, 1, 2, 2)
    states = [pw.state_from_modes(ref_grid, [a], [0.0], [v1], [0.0])
              for a, v1 in ((1e-3, 0.0), (0.6, 400.0), (0.5, 600.0))]
    cfg = pw.StepConfig(dt=1e-3, blowup_cutoff=1.0)
    trajs = pw.simulate(pw.State.stacked(np.array([s.y for s in states])),
                        ref_params, exps, ref_grid, cfg, 5e-3)
    assert [(t.outcome, t.trigger, t.t_detect) for t in trajs] == [
        ("completed", None, None), ("blowup", "grad_v_sq", 1e-3),
        ("blowup", "grad_v_sq", 1e-3)]
    for traj, state0 in zip(trajs[1:], states[1:]):
        assert max(_norms(state0, ref_grid, ref_params)) <= 1.0 \
            < _norms(traj.final_state, ref_grid, ref_params)[0]


def test_quadratic_form_trigger_and_blowup_on_the_last_step(ref_params):
    """v = 0, p = 0.8 moving along its mode crosses the cutoff on step 1 by
    Q alone (grad_v_sq stays ~1e-12), in a batch beside a grad_v_sq
    blow-up and a member that completes; run alone to the step it blows
    up on, it ends as a blow-up with one record at t_detect, not two."""
    grid = pw.Grid1D(1.0, 81)
    exps = pw.validate_exponents(1, 1, 2, 2)
    cfg = pw.StepConfig(dt=1e-3, blowup_cutoff=1.0)
    states = [pw.state_from_modes(grid, [v0], [p0], [v1], [p1])
              for v0, p0, v1, p1 in ((0.0, 0.8, 0.0, 200.0),
                                     (0.6, 0.0, 400.0, 0.0),
                                     (1e-3, 0.0, 0.0, 0.0))]
    trajs = pw.simulate(pw.State.stacked(np.array([s.y for s in states])),
                        ref_params, exps, grid, cfg, 5e-3)
    assert [(t.outcome, t.trigger, t.t_detect) for t in trajs] == [
        ("blowup", "quadratic_form", 1e-3), ("blowup", "grad_v_sq", 1e-3),
        ("completed", None, None)]
    assert max(_norms(states[0], grid, ref_params)) <= 1.0
    assert max(_norms(states[1], grid, ref_params)) <= 1.0
    grad_v_sq, q = _norms(trajs[0].final_state, grid, ref_params)
    assert grad_v_sq < 1e-6 and q == trajs[0].records[-1].Q > 1.0
    assert _norms(trajs[1].final_state, grid, ref_params)[0] > 1.0
    alone = pw.simulate(states[0], ref_params, exps, grid, cfg, 1e-3)
    assert (alone.outcome, alone.trigger, alone.t_detect) == \
        ("blowup", "quadratic_form", 1e-3)
    assert [r.t for r in alone.records] == [0.0, 1e-3]


def test_data_past_the_cutoff_end_at_t_zero(ref_params, step_calls):
    """Initial data already past the cutoff, by grad_v_sq or by Q, or NaN,
    end at t_detect = 0 with one record and their initial state, and leave
    the batch before its first step; a batch of only such members takes
    no step at all, alone or together."""
    grid = pw.Grid1D(1.0, 81)
    exps = pw.validate_exponents(1, 1, 2, 2)
    cfg = pw.StepConfig(dt=1e-3, blowup_cutoff=1.0)
    states = [pw.state_from_modes(grid, [v0], [p0], [0.0], [0.0])
              for v0, p0 in ((1e-3, 0.0), (1.0, 0.0), (float("nan"), 0.0),
                             (0.0, 1.0))]
    y = np.array([s.y for s in states])
    trajs = pw.simulate(pw.State.stacked(y), ref_params, exps, grid, cfg,
                        5e-3)
    assert [(t.outcome, t.trigger, t.t_detect) for t in trajs] == [
        ("completed", None, None), ("blowup", "grad_v_sq", 0.0),
        ("blowup", "grad_v_sq", 0.0), ("blowup", "quadratic_form", 0.0)]
    assert step_calls == [1] * 5      # the completing member steps alone
    for traj, state0 in zip(trajs[1:], states[1:]):
        assert [r.t for r in traj.records] == [0.0]
        assert traj.final_state.t == 0.0
        assert traj.final_state.y.tobytes() == state0.y.tobytes()
    step_calls.clear()
    alone = pw.simulate(states[2], ref_params, exps, grid, cfg, 5e-3)
    assert _bits(alone) == _bits(trajs[2])
    pw.simulate(pw.State.stacked(y[1:]), ref_params, exps, grid, cfg, 5e-3)
    assert step_calls == []


# members of one batch under cutoff 1.0, m = 1, n = 2, nx = 41, and the
# step each blows up on: at t = 0, mid-block (17), on the last step of a
# default block (32, by Q alone), on the last step of a 3-step block (33),
# on the last step of the run (50), and never; as (v0, p0, v1, p1) modes
BLOCK_MEMBERS = {0: (1.0, 0.0, 0.0, 0.0), 17: (0.0, 0.0, 39.0, 0.0),
                 32: (0.0, 0.0, 0.0, 29.0), 33: (0.0, 0.0, 20.0, 0.0),
                 50: (0.0, 0.0, 13.2, 0.0), None: (0.0, 0.0, 1.0, 0.0)}


def _block_run(ref_params, states, t_end=0.05):
    """simulate of states, stacked if a list, under cutoff 1.0, m = 1,
    n = 2, record_every = 7 (0.05 is 50 steps, a multiple of neither 3
    nor 32)."""
    y = np.array([s.y for s in states]) if isinstance(states, list) \
        else states.y
    return pw.simulate(pw.State.stacked(y), ref_params,
                       pw.validate_exponents(1, 1, 2, 2), pw.Grid1D(1.0, 41),
                       pw.StepConfig(dt=1e-3, blowup_cutoff=1.0), t_end, 7)


@pytest.mark.parametrize("block", [1, 3, pw.integrator.BLOCK_STEPS],
                         ids=["per-step", "K3", "default"])
def test_blocks_of_steps_equal_a_check_after_each_step(ref_params,
                                                       monkeypatch, block):
    """The members of one batch that blow up at t = 0, inside a block, on
    a block's last step and on the run's last step, and one that completes,
    end bit for bit as they do alone with a check after every step (blocks
    of 1), whatever the block length; a member's later steps in its block
    are dropped, not recorded."""
    grid = pw.Grid1D(1.0, 41)
    states = [pw.state_from_modes(grid, *[[a] for a in modes])
              for modes in BLOCK_MEMBERS.values()]
    monkeypatch.setattr(pw.integrator, "BLOCK_STEPS", 1)
    alone = [_block_run(ref_params, s) for s in states]
    assert [t.t_detect and round(t.t_detect / 1e-3) for t in alone] == [
        0.0, 17, 32, 33, 50, None]
    assert [t.trigger for t in alone] == ["grad_v_sq"] + [
        "quadratic_form"] * 4 + [None]
    monkeypatch.setattr(pw.integrator, "BLOCK_STEPS", block)
    batch = _block_run(ref_params, states)
    assert [_bits(t) for t in batch] == [_bits(t) for t in alone]
    assert [_bits(_block_run(ref_params, s)) for s in states] == \
        [_bits(t) for t in alone]


@pytest.mark.parametrize("m", [3.0, 2.0])
def test_simulate_steps_as_direct_calls_do(ref_params, ref_grid, m):
    """simulate's own Stepper, which leaves the shape check and the error
    state to simulate and steps its one member as a batch of one, gives
    the state of direct Stepper.step calls bit for bit over 70 steps, more
    than two blocks of BLOCK_STEPS."""
    assert 70 > 2 * pw.integrator.BLOCK_STEPS
    exps, cfg = pw.validate_exponents(m, m, 3, 3), pw.StepConfig(dt=1e-3)
    state = pw.state_from_modes(ref_grid, [0.2], [0.12], [0.2], [-0.2])
    traj = pw.simulate(state, ref_params, exps, ref_grid, cfg, 70e-3, 10)
    stepper = pw.Stepper(ref_grid, ref_params, cfg)
    for _ in range(70):
        state = stepper.step(state, exps)
    assert traj.outcome == "completed"
    assert traj.final_state.y.tobytes() == state.y.tobytes()


@pytest.mark.parametrize("block", [3, pw.integrator.BLOCK_STEPS],
                         ids=["K3", "default"])
def test_an_error_past_the_cutoff_inside_a_block_is_not_raised(
        ref_params, monkeypatch, block):
    """With a step that marks failed each member it is handed past the
    cutoff (or past 0.25, under it), a member that blows up inside a block
    ends as it does with a step that marks nothing, beside one that
    completes.  Marked under the cutoff, the member ends as a solver
    failure at its state before the marked step, with the records it had,
    and the other member still completes as it does alone.  A block ends
    at a marked step, and no step is taken again: at most n_steps + K - 1
    step calls."""
    grid, params = pw.Grid1D(1.0, 41), ref_params
    states = [pw.state_from_modes(grid, *[[a] for a in BLOCK_MEMBERS[k]])
              for k in (17, None)]
    expected = [_bits(t) for t in _block_run(params, states)]
    step, calls, limit = pw.Stepper.step, [], [1.0]

    def failing(self, state, exps):
        calls.append(1)
        new = step(self, state, exps)
        for row, (g, q, _) in enumerate(
                _step_norms(state.y, grid, params,
                            row_power(exps.m1 + 1.0, exps.m2 + 1.0))):
            if not (g <= limit[0] and q <= limit[0]):
                new.failed[row] = "source_iteration"
        return new
    monkeypatch.setattr(pw.Stepper, "step", failing)
    monkeypatch.setattr(pw.integrator, "BLOCK_STEPS", block)
    trajs = _block_run(params, states)
    assert [t.outcome for t in trajs] == ["blowup", "completed"]
    assert [_bits(t) for t in trajs] == expected
    assert len(calls) <= 50 + block - 1
    calls.clear()
    limit[0] = 0.25
    trajs = _block_run(params, states)
    assert len(calls) <= 50 + block - 1
    failure, done = trajs
    assert (failure.outcome, failure.trigger) == ("solver_failure",
                                                  "source_iteration")
    k = round(failure.t_detect / 1e-3)
    assert 1 < k < 17 and failure.final_state.t == (k - 1) * 1e-3
    # the state the marked step was handed, which it failed to step
    assert max(_norms(failure.final_state, grid, params)) > 0.25
    before = _block_run(params, states[0], t_end=(k - 1) * 1e-3)
    assert before.outcome == "completed"
    assert failure.final_state.y.tobytes() == before.final_state.y.tobytes()
    # the records of the run to k - 1, but for its last, unless due anyway
    assert [astuple(r) for r in failure.records] == [
        astuple(r) for r in before.records
        if r.t < (k - 1) * 1e-3 or (k - 1) % 7 == 0]
    assert _bits(done) == expected[1]


# solver failures on real data: the asymmetric material of the
# mixed-exponent cases, nx = 81, dt = 1e-3, m1 = m2 = m, n = (2, 3), and
# initial modes v0 = 0.3, v1 = 0.1, p1 = -0.05 with p0 as given
ASYMMETRIC = (2.3, 5.0, 0.7, 1.9, 0.4)


def _asymmetric_run(p0s, m, scheme, t_end=0.5, **cfg):
    """simulate of the members p0s, a batch if a list, on that setup;
    cfg holds further StepConfig fields."""
    grid = pw.Grid1D(1.0, 81)
    y = np.array([pw.state_from_modes(grid, [0.3], [p0], [0.1], [-0.05]).y
                  for p0 in np.atleast_1d(p0s)])
    return pw.simulate(pw.State.stacked(y if isinstance(p0s, list) else y[0]),
                       pw.make_params(*ASYMMETRIC),
                       pw.validate_exponents(m, m, 2, 3), grid,
                       pw.StepConfig(dt=1e-3, scheme=scheme, **cfg), t_end,
                       10)


def test_a_diverged_source_iteration_is_a_solver_failure(ref_params,
                                                         ref_grid):
    """At dt = 5e-3 the implicit-midpoint source iteration of a blow-up
    run turns its finite iterate NaN on the step to t = 1.21, with Q at
    6.65e4, far below the cutoff: the run ends as a solver failure at its
    last good state, t = 1.205, not as a blow-up on a NaN state."""
    state0 = pw.state_from_modes(ref_grid, [3.0], [2.7], [0.0], [0.0])
    traj = pw.simulate(state0, ref_params, pw.validate_exponents(2, 2, 3, 3),
                       ref_grid, pw.StepConfig(dt=5e-3,
                                               scheme="implicit-midpoint"),
                       2.0)
    assert (traj.outcome, traj.trigger, traj.t_detect) == (
        "solver_failure", "source_iteration", 242 * 5e-3)
    assert traj.final_state.t == traj.records[-1].t == 241 * 5e-3
    assert np.isfinite(traj.final_state.y).all()
    assert traj.records[-1].Q == pytest.approx(6.65e4, rel=1e-3)
    assert _norms(traj.final_state, ref_grid, ref_params)[1] == \
        traj.records[-1].Q


def test_settled_reads_a_member_alone_as_in_a_batch():
    """A member's settled flag and largest move, from the move |new - xm|
    that `_iterate` holds, are the same from a (2, nx) pair, a batch of
    one and its row of a batch: a move of 1e-13 settles, one of 1e-3 does
    not, and a NaN move does not and stays NaN."""
    rng = np.random.default_rng(5)
    xm = rng.standard_normal((3, 2, 41))
    new = xm + np.array([1e-13, 1e-3, 0.0])[:, None, None]
    new[2, 1, 7] = np.nan
    move = np.abs(new - xm)
    flags, moves = _settled(new, move)
    assert flags == [True, False, False] and np.isnan(moves[2])
    for row in range(3):
        for shape in ((2, 41), (1, 2, 41)):
            flag, largest = _settled(new[row].reshape(shape),
                                     move[row].reshape(shape))
            assert flag == [flags[row]]
            np.testing.assert_array_equal(largest, moves[row:row + 1])


def test_a_stalled_source_iteration_is_a_solver_failure():
    """On the asymmetric material with m = 2.5 and p0 = 30 the
    implicit-midpoint source iteration of step 326 still moves after its
    last solve: the run ends as a solver failure at t = 0.325, on a finite
    state, with the records it had."""
    traj = _asymmetric_run(30.0, 2.5, "implicit-midpoint")
    assert (traj.outcome, traj.trigger, traj.t_detect) == (
        "solver_failure", "source_iteration", 326 * 1e-3)
    assert traj.final_state.t == 325 * 1e-3
    assert np.isfinite(traj.final_state.y).all()
    assert [round(r.t / 1e-3) for r in traj.records] == list(range(0, 330,
                                                                   10))


@pytest.mark.parametrize("m, k", [(2.5, 329), (4.0, 100)])
def test_damping_failures_past_a_blowup_are_dropped(monkeypatch, m, k):
    """Semi-implicit on the same data blows up by Q at step k, and the
    look-ahead steps of its block, dropped, reach |v_t| past 1e104 (m = 4)
    and 6e141 (m = 2.5): Newton in log|x| meets every damping root there,
    so no step is marked failed and the run stays a blow-up at step k."""
    marks, step = [], pw.Stepper.step

    def observed(self, state, exps):
        new = step(self, state, exps)
        marks.extend((round(new.t / 1e-3), v) for v in new.failed.values())
        return new
    monkeypatch.setattr(pw.Stepper, "step", observed)
    traj = _asymmetric_run(30.0, m, "semi-implicit")
    assert (traj.outcome, traj.trigger, traj.t_detect) == (
        "blowup", "quadratic_form", k * 1e-3)
    assert traj.final_state.t == traj.records[-1].t == k * 1e-3
    assert marks == []


@pytest.mark.parametrize("m, k", [(2.5, 337), (4.0, 109)])
def test_an_infinite_cutoff_blows_up_on_a_non_finite_state(m, k):
    """With blowup_cutoff = inf the same runs go on past |v_t| = 1e100
    until a norm turns non-finite at step k: a blow-up by grad_v_sq, not a
    damping solve that fails on a finite state (at m = 4 it did, at step
    108, once Newton's |x|^3 overflowed)."""
    traj = _asymmetric_run(30.0, m, "semi-implicit", blowup_cutoff=np.inf)
    assert (traj.outcome, traj.trigger, traj.t_detect) == (
        "blowup", "grad_v_sq", k * 1e-3)
    assert traj.final_state.t == traj.records[-1].t == k * 1e-3


def test_a_failing_member_leaves_its_batch_bit_for_bit():
    """In one batch, a member that completes, one that blows up before the
    failure, the member whose source iteration stalls and one that blows
    up after it each end as they do alone, bit for bit."""
    p0s = [0.2, 45.0, 30.0, 25.0]
    alone = [_asymmetric_run(p0, 2.5, "implicit-midpoint") for p0 in p0s]
    assert [(t.outcome, t.t_detect and round(t.t_detect / 1e-3))
            for t in alone] == [("completed", None), ("blowup", 163),
                                ("solver_failure", 326), ("blowup", 412)]
    batch = _asymmetric_run(p0s, 2.5, "implicit-midpoint")
    assert [_bits(t) for t in batch] == [_bits(t) for t in alone]


# members of the fused-norm batches: ordinary data, a NaN member and an
# overflowed member (its differences and powers are inf)
NORM_AMPLITUDES = [0.3, float("nan"), 1e200, -2.0, 0.05]


@pytest.mark.parametrize("damping_on", [True, False],
                         ids=["damped", "undamped"])
@pytest.mark.parametrize("exponents", [(2, 2, 3, 3), (4, 1, 3, 2)],
                         ids=["equal", "mixed-newton-m4"])
@pytest.mark.parametrize("order", [[2], [1, 0], [0, 1, 2, 3, 4],
                                   [i % 5 for i in range(8)],
                                   [i % 5 for i in range(64)]],
                         ids=["B1", "B2", "B5", "B8", "B64"])
def test_step_norms_equal_the_public_functions(order, exponents,
                                               damping_on):
    """The fused pass gives each member, bit for bit, grad_norm_sq(v),
    quadratic_form(v, p) and the sum of damping_norms (0.0 with damping
    off), for a batch, for one member given as (4, nx), and for a block of
    steps of a batch, (K, B, 4, nx), as its calls step by step do.  B = 8
    and 64 repeat the amplitudes, since BLAS may take other kernels at
    those sizes."""
    params = pw.make_params(*MATERIALS[1])
    exps = pw.validate_exponents(*exponents)
    power = row_power(exps.m1 + 1.0, exps.m2 + 1.0) if damping_on else None
    grid = pw.Grid1D(1.0, 41)
    y = np.array([pw.state_from_modes(grid, [a, 0.1], [-0.5 * a], [a],
                                      [0.2, a]).y
                  for a in (NORM_AMPLITUDES[i] for i in order)])
    with np.errstate(**QUIET):
        expected = [(grad_norm_sq(m[0], grid),
                     quadratic_form(m[0], m[1], grid, params),
                     sum(damping_norms(pw.State.stacked(m), exps, grid))
                     if damping_on else 0.0) for m in y]
        got = _step_norms(y, grid, params, power)
        alone = [_step_norms(m, grid, params, power)[0] for m in y]
        # a block of 3 steps, (3, B, 4, nx), as `simulate` stacks it
        steps = np.array([np.roll(y, j, axis=0) for j in range(3)])
        blocked = _step_norms(steps, grid, params, power)
        per_step = [n for s in steps
                    for n in _step_norms(s, grid, params, power)]
    assert np.array(got).tobytes() == np.array(expected).tobytes()
    assert np.array(alone).tobytes() == np.array(expected).tobytes()
    assert np.array(blocked).tobytes() == np.array(per_step).tobytes()


def test_q_is_accurate_on_a_near_degenerate_material():
    """alpha = gamma^2 beta (1 + 1e-8) leaves alpha1 about 1e-8 beta
    gamma^2, and p = gamma v makes the beta term all but vanish, so Q is
    alpha1 ||grad v||^2 out of terms 1e8 times larger.  quadratic_form and
    _step_norms still agree to 1e-12 with Q evaluated exactly in rationals
    from the same float arrays and alpha1; the Gram form gamma^2 vv -
    2 gamma vp + pp, which cancels those large terms, misses by about
    1e-8."""
    beta, gamma = 0.7, 1.9
    params = pw.make_params(2.3, gamma * gamma * beta * (1.0 + 1e-8), beta,
                            gamma, 0.4)
    assert 0.5e-8 < params.alpha1 / (beta * gamma * gamma) < 2e-8
    grid = pw.Grid1D(1.0, 41)
    v = pw.grid.sine_modes(grid, [0.3, -0.1, 0.05])
    p = gamma * v
    y = pw.State(v, p, 0.0 * v, 0.0 * v).y

    def exact_sum(terms):
        return sum((b - a) ** 2 for a, b in zip(terms, terms[1:]))
    fv, fp = [Fraction(x) for x in v], [Fraction(x) for x in p]
    fgamma = Fraction(gamma)
    exact = (Fraction(params.alpha1) * exact_sum(fv) + Fraction(beta)
             * exact_sum([fgamma * a - b for a, b in zip(fv, fp)])) \
        / Fraction(grid.dx)
    dv, dp = np.diff(v), np.diff(p)
    gram = (params.alpha1 * (dv @ dv) + beta * (gamma * gamma * (dv @ dv)
            - 2.0 * gamma * (dv @ dp) + dp @ dp)) / grid.dx
    for q in (quadratic_form(v, p, grid, params),
              _step_norms(y, grid, params, None)[0][1]):
        assert abs(Fraction(q) - exact) <= 1e-12 * exact
    assert abs(Fraction(gram) - exact) > 1e-10 * exact


def test_grad_v_sq_does_not_see_p():
    """A member whose p is non-finite and whose v is finite keeps the
    finite grad_norm_sq(v) of its v in the fused pass, beside an infinite
    Q, so the blow-up check names Q as the trigger."""
    params = pw.make_params(*MATERIALS[1])
    grid = pw.Grid1D(1.0, 41)
    y = pw.state_from_modes(grid, [0.3], [0.1], [0.0], [0.0]).y
    y[1, 7] = np.inf
    with np.errstate(**QUIET):
        (grad_v_sq, q, _), = _step_norms(y, grid, params, None)
    assert grad_v_sq == grad_norm_sq(y[0], grid) < np.inf
    assert q == np.inf


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


def _kinetic_energy(state, params, grid):
    """Half the mass-weighted squared L2 norm of the velocities."""
    return 0.5 * (params.rho * l2_norm_sq(state.vt, grid)
                  + params.mu * l2_norm_sq(state.pt, grid))


@pytest.mark.parametrize("amplitudes", [[0.3, 40.0, -0.05], [40.0]],
                         ids=["B3", "B1"])
def test_last_record_is_make_record_of_final_state(amplitudes):
    """The records that simulate takes batch-wide equal, bit for bit,
    make_record of each member's final state, with its damping_cum and
    Etot(0), and the public per-field functions: on a batch with n1 != n2
    whose v0 = 40 member blows up between two record steps, and on that
    member alone, as (4, nx)."""
    params = pw.make_params(*MATERIALS[1])
    exps = pw.validate_exponents(1, 1, 2, 2.5)
    grid = pw.Grid1D(1.0, 41)
    cfg = pw.StepConfig(dt=1e-3, scheme="implicit-midpoint")
    states = [pw.state_from_modes(grid, [a], [0.5 * a], [0.1], [0.0])
              for a in amplitudes]
    if len(states) == 1:
        trajs = [pw.simulate(states[0], params, exps, grid, cfg, 0.3, 7)]
    else:
        trajs = pw.simulate(pw.State.stacked(np.array([s.y for s in states])),
                            params, exps, grid, cfg, 0.3, 7)
    assert "blowup" in [t.outcome for t in trajs]
    for traj in trajs:
        last, final = traj.records[-1], traj.final_state
        expected = make_record(final, params, exps, grid, last.damping_cum,
                               traj.records[0].Etot)
        assert np.array(astuple(last)).tobytes() \
            == np.array(astuple(expected)).tobytes()
        with np.errstate(**QUIET):
            assert (last.vnorm_n1, last.pnorm_n2) == pw.source_norms(
                final, exps, grid)
            assert last.E == _kinetic_energy(final, params, grid) \
                + 0.5 * last.Q
            assert last.nprime == pw.Nprime_of(final, params, grid)

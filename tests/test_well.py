import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.optimize as sopt

import piezowave as pw
from piezowave.errors import DeltaOutOfRange, ZeroState
from piezowave.grid import grad_norm_sq, stiffness_solver
from piezowave.well import (_embedding_quotient, check_delta, lambda_fn,
                            lambda_prime)


def _scaled(state, c):
    """The state with every row scaled by c."""
    return pw.State.stacked(c * state.y, state.t)


# ---------------------------------------------------------------------------
# embedding and Poincare constants

def test_quotient_scale_invariance(coarse_grid, rng):
    for _ in range(100):
        u = rng.standard_normal(coarse_grid.nx)
        u[0] = 0.0
        c = rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0])
        q0 = _embedding_quotient(u, 4.0, coarse_grid)
        qc = _embedding_quotient(c * u, 4.0, coarse_grid)
        assert qc == pytest.approx(q0, rel=1e-10)


def test_poincare_matches_dense_eigensolver(coarse_grid):
    """Oracle: generalized eigenproblem K u = lambda W u solved densely."""
    n = coarse_grid.nx - 1
    dx = coarse_grid.dx
    k = np.zeros((n, n))
    for i in range(n):
        k[i, i] = 2.0 / dx if i < n - 1 else 1.0 / dx
        if i + 1 < n:
            k[i, i + 1] = k[i + 1, i] = -1.0 / dx
    w = np.diag(coarse_grid.weights[1:])
    lam_min = sla.eigh(k, w, eigvals_only=True)[0]
    oracle = 1.0 / np.sqrt(lam_min)
    assert pw.poincare_constant(coarse_grid) == pytest.approx(oracle,
                                                              abs=1e-10)


@pytest.mark.parametrize("L", [0.7, 2.3])
@pytest.mark.parametrize("nx", [17, 41])
def test_well_constants_off_unit_length(L, nx, rng):
    """Oracle off L = 1: K = dx G^T G from an explicit forward-difference
    matrix G on the cells (node 0 clamped), solved densely against the
    trapezoid mass."""
    grid = pw.Grid1D(L, nx)
    n = nx - 1
    g = (np.eye(n) - np.eye(n, k=-1)) / grid.dx   # cell i: (u[i+1] - u[i])/dx
    k = grid.dx * g.T @ g
    w = grid.weights
    lam_min = sla.eigh(k, np.diag(w[1:]), eigvals_only=True)[0]
    assert pw.poincare_constant(grid) ** 2 == pytest.approx(1.0 / lam_min,
                                                            rel=1e-10)
    solve = stiffness_solver(grid)
    for _ in range(10):
        u = rng.standard_normal(nx)
        u[0] = 0.0
        assert u[1:] @ k @ u[1:] == pytest.approx(grad_norm_sq(u, grid),
                                                  rel=1e-13)
        # the operator the power method inverts is this K
        f = rng.standard_normal(nx)
        assert k @ solve(f) == pytest.approx((w * f)[1:], rel=1e-10,
                                             abs=1e-10 * np.max(np.abs(f)))


def test_poincare_close_to_continuum(ref_grid):
    # continuum constant for u(0) = 0, u'(L) = 0 on (0, L) is 2L/pi
    assert pw.poincare_constant(ref_grid) == pytest.approx(2.0 / np.pi,
                                                           rel=1e-4)


@pytest.mark.parametrize("L, nx", [(1.0, 3), (2.5, 11), (1.0, 41),
                                   (1.0, 81), (1.0, 201), (0.3, 1001)])
def test_embedding_q2_equals_poincare_squared(L, nx):
    """The power method at q = 2 reaches the closed form's square to
    roundoff (it lands up to 5e-16 relative above it)."""
    grid = pw.Grid1D(L, nx)
    b = pw.embedding_constant(grid, 2.0)
    pc = pw.poincare_constant(grid)
    assert b == pytest.approx(pc * pc, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("L, nx", [(1.0, 3), (2.5, 11), (1.0, 201),
                                   (0.3, 1001)])
def test_poincare_is_the_closed_form_to_one_ulp(L, nx):
    """c = dx / (2 sin(pi dx / (4L))), evaluated in extended precision
    from the same dx and L, agrees to one unit in the last place."""
    grid = pw.Grid1D(L, nx)
    dx, length = np.longdouble(grid.dx), np.longdouble(grid.L)
    pi = np.longdouble("3.14159265358979323846264338327950288")
    exact = dx / (2 * np.sin(pi * dx / (4 * length)))
    pc = pw.poincare_constant(grid)
    assert abs(np.longdouble(pc) - exact) <= np.spacing(pc)


def test_poincare_constant_needs_no_power_method(monkeypatch, ref_grid):
    """The closed form stands alone: no embedding_constant call."""
    def refuse(*args, **kwargs):
        raise AssertionError("embedding_constant called")
    monkeypatch.setattr(pw.well, "embedding_constant", refuse)
    assert pw.poincare_constant(ref_grid) == pytest.approx(2.0 / np.pi,
                                                           rel=1e-4)


def test_embedding_q4_matches_bruteforce_oracle(coarse_grid, rng):
    """Oracle: random sampling over a smooth candidate space plus a
    Nelder-Mead polish of the best sample."""
    x = coarse_grid.nodes
    modes = np.array([np.sin((k - 0.5) * np.pi * x) for k in range(1, 9)])

    def quotient_of(c):
        return _embedding_quotient(c @ modes, 4.0, coarse_grid)

    samples = rng.standard_normal((10**5, 8))
    vals = [quotient_of(c) for c in samples[:2000]]   # dense eval is slow
    best_c = samples[int(np.argmax(vals))]
    res = sopt.minimize(lambda c: -quotient_of(c), best_c,
                        method="Nelder-Mead",
                        options={"maxiter": 20000, "fatol": 1e-14,
                                 "xatol": 1e-12})
    oracle = -res.fun
    impl = pw.embedding_constant(coarse_grid, 4.0)
    assert impl == pytest.approx(oracle, rel=1e-3)
    assert impl >= oracle * (1.0 - 1e-9)   # ascent must not undershoot


@pytest.mark.parametrize("q", [3.0, 4.5, 6.5])
def test_embedding_constant_does_not_depend_on_seed(coarse_grid, q):
    """The power method has one deterministic start: seed and restarts are
    checked but change nothing, bit for bit, up to q = 6.5."""
    values = {pw.embedding_constant(coarse_grid, q, restarts=r, seed=s)
              for s in range(4) for r in (1, 16)}
    assert len(values) == 1


def test_well_report_b1_equals_b2_when_n1_equals_n2(ref_params, ref_grid):
    """With n1 = n2, B1 and B2 are the same constant, bit for bit."""
    exps = pw.validate_exponents(2.0, 2.0, 3.0, 3.0)
    report = pw.well_report(ref_params, exps, ref_grid)
    assert report.B1 == report.B2


@pytest.mark.parametrize("n2, calls", [(3.0, [4.0]), (2.5, [4.0, 3.5])])
def test_well_report_runs_one_power_method_per_exponent(ref_params, ref_grid,
                                                         monkeypatch, n2,
                                                         calls):
    """well_report calls embedding_constant once when n1 = n2 and once
    per exponent when they differ, with no seed: the seed changes
    nothing."""
    made, constant = [], pw.well.embedding_constant

    def counted(grid, q, **kwargs):
        made.append((q, kwargs))
        return constant(grid, q, **kwargs)
    monkeypatch.setattr(pw.well, "embedding_constant", counted)
    exps = pw.validate_exponents(2.0, 2.0, 3.0, n2)
    report = pw.well_report(ref_params, exps, ref_grid, seed=7)
    assert sorted(made, reverse=True) == [(q, {}) for q in calls]
    assert report == pw.well_report(ref_params, exps, ref_grid)


def _continuum_embedding(q, L):
    """sup int_0^L |u|^q / (int_0^L u'^2)^(q/2) over u(0) = 0 (Talenti,
    Ann. Mat. Pura Appl. 110, 1976; in one dimension E. Schmidt, Math.
    Ann. 117, 1940): (2/q) L^(1+q/2) I0^(-(q+2)/2) I1^(-(q-2)/2), with
    I0 = B(1/q, 1/2)/q and I1 = B(1/q, 3/2)/q, from the first integral of
    the extremal, the positive solution of -u'' = u^(q-1), u'(L) = 0."""
    def beta(a, b):
        return math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    i0, i1 = beta(1 / q, 0.5) / q, beta(1 / q, 1.5) / q
    return (2 / q) * L ** (1 + q / 2) * i0 ** (-(q + 2) / 2) \
        * i1 ** (-(q - 2) / 2)


@pytest.mark.parametrize("L", [1.0, 2.7])
def test_continuum_embedding_at_q2_is_poincare_squared(L):
    """At q = 2 the closed form is (2L/pi)^2, the square of the continuum
    Poincare constant."""
    assert _continuum_embedding(2.0, L) == pytest.approx(
        (2 * L / np.pi) ** 2, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("q, c_q", [(3.0, 0.32389), (4.0, 0.47124),
                                    (5.5, 0.74502)])
def test_embedding_constant_converges_to_the_closed_form(q, c_q):
    """The discrete constant lies above the continuum one by
    B_q C_q dx^2, with the same C_q at nx = 201 and 801."""
    exact = _continuum_embedding(q, 1.0)
    excess = []
    for nx in (201, 801):
        grid = pw.Grid1D(1.0, nx)
        b = pw.embedding_constant(grid, q)
        assert b > exact
        excess.append((b - exact) / (exact * grid.dx ** 2))
    assert excess[1] == pytest.approx(excess[0], rel=1e-3)
    assert excess[1] == pytest.approx(c_q, rel=1e-3)


def test_embedding_constant_rejects_bad_q(coarse_grid):
    with pytest.raises(ValueError):
        pw.embedding_constant(coarse_grid, 7.5)


# ---------------------------------------------------------------------------
# C_hat arithmetic

def test_c_hat_constant_examples():
    p = pw.make_params(1.0, 1.0, 2.0, 0.0, 1.0)    # alpha1 = 1, beta = 2
    assert pw.c_hat_constant(0.7, 0.4, p, 3, 3) == pytest.approx(0.7)
    assert pw.c_hat_constant(1.0, 1.0, p, 3, 3) == pytest.approx(1.0)
    p2 = pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)   # M = max{3, 2} = 3
    assert pw.c_hat_constant(2.0, 2.0, p2, 3, 3) == pytest.approx(18.0)


# ---------------------------------------------------------------------------
# scalar barrier: s*, Lambda*, y0

def test_s_star_equal_exponents():
    s, lam = pw.s_star_solve(1.0, 3.0, 3.0)
    assert s == pytest.approx(0.5, abs=1e-12)
    assert lam == pytest.approx(0.125, abs=1e-12)


def test_s_star_mixed_exponents_golden_ratio():
    # C = 1, n1 = 3, n2 = 5: s + s^2 = 1 -> s = (sqrt(5) - 1)/2
    s, _ = pw.s_star_solve(1.0, 3.0, 5.0)
    assert s == pytest.approx((np.sqrt(5.0) - 1.0) / 2.0, abs=1e-10)


def test_s_star_generic_against_dense_scan():
    c, n1, n2 = 0.7, 2.5, 4.2
    s_impl, _ = pw.s_star_solve(c, n1, n2)
    grid = np.linspace(1e-9, 2.0, 10**6)
    vals = lambda_prime(grid, c, n1, n2)
    idx = int(np.argmin(np.abs(vals)))
    assert abs(s_impl - grid[idx]) < 1e-5


def test_lambda_strictly_increasing_before_s_star():
    c, n1, n2 = 0.8, 2.2, 3.7
    s, _ = pw.s_star_solve(c, n1, n2)
    sample = np.linspace(s * 1e-3, s * 0.999, 1000)
    assert np.all(lambda_prime(sample, c, n1, n2) > 0.0)
    vals = lambda_fn(sample, c, n1, n2)
    assert np.all(np.diff(vals) > 0.0)


def _y0_oracle(c, n1, n2):
    """Independent bisection for C((2y)^((n1-1)/2) + (2y)^((n2-1)/2)) = 1."""
    def h(y):
        return c * ((2.0 * y) ** ((n1 - 1.0) / 2.0)
                    + (2.0 * y) ** ((n2 - 1.0) / 2.0)) - 1.0

    lo, hi = 0.0, 1.0
    while h(hi) < 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if h(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def test_y0_examples():
    y0, m = pw.y0_and_threshold(1.0, 3.0, 3.0, 4.0)
    assert y0 == pytest.approx(0.25, abs=1e-12)
    assert m == pytest.approx(1.0 / 24.0, abs=1e-12)


def test_y0_and_threshold_rejects_a_c_hat_off_its_exponents():
    """c_hat is min(n1 + 1, n2 + 1), 4 at n = (3, 5), and no other."""
    with pytest.raises(pw.InvalidArgument, match="c_hat = 5.0"):
        pw.y0_and_threshold(1.0, 3.0, 5.0, 5.0)
    assert pw.y0_and_threshold(1.0, 3.0, 5.0, 4.0)[1] > 0.0


def test_y0_equals_half_s_star_on_random_draws(rng):
    for _ in range(50):
        c = rng.uniform(0.05, 5.0)
        n1 = rng.uniform(1.1, 5.5)
        n2 = rng.uniform(1.1, 5.5)
        s, _ = pw.s_star_solve(c, n1, n2)
        y0, _ = pw.y0_and_threshold(c, n1, n2, min(n1, n2) + 1.0)
        assert abs(y0 - s / 2.0) < 1e-12 * max(1.0, s)
        assert abs(y0 - _y0_oracle(c, n1, n2)) < 1e-12 * max(1.0, s)


# ---------------------------------------------------------------------------
# Nehari projection

def test_lambda_star_closed_form_equal_exponents(ref_params, coarse_grid):
    exps = pw.validate_exponents(1, 1, 2, 2)
    st = pw.state_from_modes(coarse_grid, [0.4, -0.2], [0.3], [0.0], [0.0])
    from piezowave.grid import quadratic_form
    q = quadratic_form(st.v, st.p, coarse_grid, ref_params)
    vn, pn = pw.source_norms(st, exps, coarse_grid)
    closed = (q / (vn + pn)) ** (1.0 / (exps.n1 - 1.0))
    lam, _ = pw.nehari_lambda_star(st, ref_params, exps, coarse_grid)
    assert lam == pytest.approx(closed, rel=1e-10)


def test_lambda_star_is_one_on_nehari_set(ref_params, coarse_grid):
    exps = pw.validate_exponents(1, 1, 2, 2)
    st = pw.state_from_modes(coarse_grid, [0.4], [0.2], [0.0], [0.0])
    lam, _ = pw.nehari_lambda_star(st, ref_params, exps, coarse_grid)
    on = _scaled(st, lam)
    lam2, _ = pw.nehari_lambda_star(on, ref_params, exps, coarse_grid)
    assert lam2 == pytest.approx(1.0, abs=1e-9)
    s = pw.sign_functional(on, ref_params, exps, coarse_grid)
    from piezowave.grid import quadratic_form
    q = quadratic_form(on.v, on.p, coarse_grid, ref_params)
    assert abs(s) <= 1e-9 * q


def test_lambda_star_scaling_covariance(ref_params, coarse_grid, rng):
    exps = pw.validate_exponents(1, 3, 2.5, 4.0)
    for _ in range(20):
        v = rng.standard_normal(coarse_grid.nx)
        p = rng.standard_normal(coarse_grid.nx)
        v[0] = p[0] = 0.0
        st = pw.State(v, p, np.zeros_like(v), np.zeros_like(p))
        lam, _ = pw.nehari_lambda_star(st, ref_params, exps, coarse_grid)
        c = rng.uniform(0.2, 5.0)
        lam_c, _ = pw.nehari_lambda_star(_scaled(st, c), ref_params,
                                         exps, coarse_grid)
        assert lam_c == pytest.approx(lam / c, rel=1e-10)


def test_lambda_star_maximality(ref_params, coarse_grid, rng):
    exps = pw.validate_exponents(1, 3, 2.5, 4.0)
    from piezowave.grid import quadratic_form

    def phi(l, q, a, b):
        return (0.5 * l**2 * q - l**(exps.n1 + 1.0) * a / (exps.n1 + 1.0)
                - l**(exps.n2 + 1.0) * b / (exps.n2 + 1.0))

    for _ in range(100):
        v = rng.standard_normal(coarse_grid.nx)
        p = rng.standard_normal(coarse_grid.nx)
        v[0] = p[0] = 0.0
        st = pw.State(v, p, np.zeros_like(v), np.zeros_like(p))
        lam, j_max = pw.nehari_lambda_star(st, ref_params, exps, coarse_grid)
        q = quadratic_form(v, p, coarse_grid, ref_params)
        a, b = pw.source_norms(st, exps, coarse_grid)
        assert j_max == pytest.approx(phi(lam, q, a, b), rel=1e-12)
        assert j_max >= phi(lam / 2.0, q, a, b)
        assert j_max >= phi(2.0 * lam, q, a, b)


def test_lambda_star_dense_scan_oracle(ref_params, coarse_grid, rng):
    exps = pw.validate_exponents(1, 3, 2.5, 4.0)
    v = pw.sine_modes(coarse_grid, [0.7, 0.1])
    p = pw.sine_modes(coarse_grid, [0.4, -0.3])
    st = pw.State(v, p, np.zeros_like(v), np.zeros_like(p))
    from piezowave.grid import quadratic_form
    q = quadratic_form(v, p, coarse_grid, ref_params)
    a, b = pw.source_norms(st, exps, coarse_grid)
    ls = np.linspace(1e-6, 20.0, 10**6)
    resid = np.abs(ls ** (exps.n1 - 1.0) * a + ls ** (exps.n2 - 1.0) * b - q)
    oracle = ls[int(np.argmin(resid))]
    lam, _ = pw.nehari_lambda_star(st, ref_params, exps, coarse_grid)
    assert abs(lam - oracle) < 1e-4   # scan resolution 2e-5
    # tight re-check by residual instead of scan resolution
    assert abs(lam ** (exps.n1 - 1.0) * a + lam ** (exps.n2 - 1.0) * b
               - q) <= 1e-8 * q


def test_lambda_star_zero_state_raises(ref_params, coarse_grid):
    exps = pw.validate_exponents(1, 1, 2, 2)
    with pytest.raises(ZeroState):
        pw.nehari_lambda_star(pw.zero_state(coarse_grid), ref_params, exps,
                              coarse_grid)


# ---------------------------------------------------------------------------
# delta admissibility

def test_check_delta_equal_exponents_always_admissible():
    s, _ = pw.s_star_solve(1.0, 3.0, 3.0)
    for d in (1e-6, s / 4.0, s / 2.0, s * 0.99):
        out = check_delta(d, s, 1.0, 3.0, 3.0)
        assert out["admissible"]
        assert out["C_tilde"] < 1.0


def test_check_delta_small_delta_inadmissible_when_asymmetric():
    s, _ = pw.s_star_solve(1.0, 3.0, 5.0)
    out = check_delta(1e-9, s, 1.0, 3.0, 5.0)
    assert not out["admissible"]


def test_check_delta_hand_computed_example():
    # n1 = 3, n2 = 5, C = 1, delta = 0.3, s* = (sqrt 5 - 1)/2
    s = (np.sqrt(5.0) - 1.0) / 2.0
    out = check_delta(0.3, s, 1.0, 3.0, 5.0)
    r = s - 0.3
    c_tilde = r + r * r
    assert out["C_tilde"] == pytest.approx(c_tilde, rel=1e-12)
    factor = max(6.0 * 2.0 / (4.0 * 4.0), 4.0 * 4.0 / (2.0 * 6.0))
    assert factor == pytest.approx(4.0 / 3.0)
    assert (c_tilde * factor < 1.0) == out["admissible"]
    assert out["admissible"]
    # C(delta) by hand: (2c/(c-2)) [ (1/2-1/4) r + (1/2-1/6) r^2 ], c = 4
    c_delta = 4.0 * (0.25 * r + (1.0 / 3.0) * r * r)
    assert out["C_delta"] == pytest.approx(c_delta, rel=1e-12)


def test_check_delta_range_errors():
    with pytest.raises(DeltaOutOfRange):
        check_delta(0.0, 0.5, 1.0, 3.0, 3.0)
    with pytest.raises(DeltaOutOfRange):
        check_delta(0.6, 0.5, 1.0, 3.0, 3.0)


# ---------------------------------------------------------------------------
# report and classification

@pytest.fixture(scope="module")
def report_n3():
    params = pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)
    grid = pw.Grid1D(1.0, 101)
    exps = pw.validate_exponents(2, 2, 3, 3)
    return params, grid, exps, pw.well_report(params, exps, grid)


def test_report_invariants(report_n3):
    _, _, _, rep = report_n3
    assert rep.s_star > 0.0
    assert rep.Lambda_star > 0.0
    assert abs(rep.y0 - rep.s_star / 2.0) < 1e-12
    assert 0.0 < rep.M_threshold < rep.Lambda_star


def test_nehari_values_bound_barrier_from_above(report_n3, rng):
    """J(lambda* u) >= Lambda(s*) for every probe: the certified lower
    bound must not exceed any Nehari value."""
    params, grid, exps, rep = report_n3
    for _ in range(30):
        st = pw.state_from_modes(grid, rng.standard_normal(3),
                                 rng.standard_normal(3), [0.0], [0.0])
        _, j_val = pw.nehari_lambda_star(st, params, exps, grid)
        assert j_val >= rep.Lambda_star - 1e-9


def test_classify_zero_state(report_n3):
    params, grid, exps, rep = report_n3
    z = pw.zero_state(grid)
    assert pw.classify_initial(z, rep, params, exps, grid) == \
        "global-predicted"


def test_classify_negative_energy(report_n3):
    params, grid, exps, rep = report_n3
    st = pw.state_from_modes(grid, [5.0], [4.5], [0.0], [0.0])
    assert pw.total_energy(st, params, exps, grid) < 0.0
    assert pw.classify_initial(st, rep, params, exps, grid) == \
        "blowup-predicted-negative"


@pytest.mark.parametrize("m, n, v0", [(4, 3, 3.0), (3, 2, 6.0)])
def test_classify_negative_energy_outside_blowup_regime(m, n, v0):
    """With n <= m the sources are not stronger than the damping, and no
    theorem predicts blow-up from negative energy."""
    params = pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)
    grid = pw.Grid1D(1.0, 201)
    exps = pw.validate_exponents(m, m, n, n)
    st = pw.state_from_modes(grid, [v0], [0.9 * v0], [0.0], [0.0])
    assert pw.total_energy(st, params, exps, grid) < 0.0
    rep = pw.well_report(params, exps, grid)
    assert pw.classify_initial(st, rep, params, exps, grid) == \
        "indeterminate"


def test_classify_unstable_side_outside_blowup_regime():
    """A W2-side state with 0 <= E0 < M is blowup-predicted only in the
    blow-up regime; the report is a stub with a large M threshold."""
    params = pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)
    grid = pw.Grid1D(1.0, 101)
    report = pw.WellReport(B1=1.0, B2=1.0, C_hat=1.0, s_star=1.0,
                           Lambda_star=1.0, y0=0.5, M_threshold=1e6,
                           poincare_c=1.0)
    unit = pw.state_from_modes(grid, [1.0], [0.9], [0.0], [0.0])
    q = pw.grid.quadratic_form(unit.v, unit.p, grid, params)
    # the n = 3 sources: S < 0 <= J for a^2 in (Q/A, 2Q/A]
    src = sum(pw.source_norms(unit, pw.validate_exponents(3, 3, 3, 3), grid))
    st = _scaled(unit, math.sqrt(1.5 * q / src))
    for m, fate in ((4, "indeterminate"), (2, "blowup-predicted")):
        exps = pw.validate_exponents(m, m, 3, 3)
        assert 0.0 <= pw.total_energy(st, params, exps, grid) < 1e6
        assert pw.sign_functional(st, params, exps, grid) < 0.0
        assert pw.classify_initial(st, report, params, exps, grid) == fate


def test_classify_unstable_side_below_threshold(report_n3):
    """Scale a fixed mode to land in S < 0 with 0 <= E0 < M."""
    params, grid, exps, rep = report_n3

    def e0(a):
        st = pw.state_from_modes(grid, [a], [0.9 * a], [0.0], [0.0])
        return pw.total_energy(st, params, exps, grid)

    lo, hi = 1.5, 4.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if e0(mid) > rep.M_threshold / 2.0:
            lo = mid
        else:
            hi = mid
    a = 0.5 * (lo + hi)
    st = pw.state_from_modes(grid, [a], [0.9 * a], [0.0], [0.0])
    assert 0.0 <= pw.total_energy(st, params, exps, grid) < rep.M_threshold
    assert pw.sign_functional(st, params, exps, grid) < 0.0
    assert pw.classify_initial(st, rep, params, exps, grid) == \
        "blowup-predicted"


def test_classify_indeterminate(report_n3):
    params, grid, exps, rep = report_n3
    # stable side but energy above the barrier: kinetic-dominated state
    st = pw.state_from_modes(grid, [0.01], [0.0], [3.0], [0.0])
    assert pw.classify_initial(st, rep, params, exps, grid) == \
        "indeterminate"


@pytest.mark.parametrize("m, n", [(1, 2), (2, 3)])
def test_classify_nehari_set_is_indeterminate(m, n, rng):
    """Data projected onto the Nehari set S = 0 lie on the well boundary,
    where neither prediction applies (and J >= Lambda* there anyway)."""
    params = pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)
    grid = pw.Grid1D(1.0, 101)
    exps = pw.validate_exponents(m, m, n, n)
    rep = pw.well_report(params, exps, grid)
    for _ in range(20):
        st = pw.state_from_modes(grid, rng.standard_normal(3),
                                 rng.standard_normal(3), [0.0], [0.0])
        lam, _ = pw.nehari_lambda_star(st, params, exps, grid)
        on = _scaled(st, lam)
        assert pw.make_record(on, params, exps, grid, 0.0,
                              0.0).well_side == "boundary"
        assert pw.classify_initial(on, rep, params, exps, grid) == \
            "indeterminate"

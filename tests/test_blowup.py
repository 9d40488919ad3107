from dataclasses import asdict

import numpy as np
import pytest

import piezowave as pw
from piezowave.errors import BoundInapplicable, NotBlowupRegime
from piezowave.grid import l2_norm_sq


@pytest.fixture
def exps23():
    return pw.validate_exponents(2, 2, 3, 3)


# ---------------------------------------------------------------------------
# N, N'

def _n_of(state, params, grid):
    """N = (rho ||v||^2 + mu ||p||^2) / 2, whose derivative is Nprime_of."""
    return 0.5 * (params.rho * l2_norm_sq(state.v, grid)
                  + params.mu * l2_norm_sq(state.p, grid))


def test_functionals_vanish_on_zero_state(ref_params, ref_grid):
    z = pw.zero_state(ref_grid)
    assert _n_of(z, ref_params, ref_grid) == 0.0
    assert pw.Nprime_of(z, ref_params, ref_grid) == 0.0


def test_nprime_twice_n_when_velocity_equals_displacement(ref_params,
                                                          ref_grid):
    v = pw.sine_modes(ref_grid, [0.7, -0.2])
    zero = np.zeros_like(v)
    st = pw.State(v, zero, v.copy(), zero)
    n = _n_of(st, ref_params, ref_grid)
    npr = pw.Nprime_of(st, ref_params, ref_grid)
    assert npr == pytest.approx(2.0 * n, rel=1e-13)


def test_functionals_match_direct_quadrature(ref_params, ref_grid, rng):
    st = pw.State(*(rng.standard_normal(ref_grid.nx) for _ in range(4)))
    w = ref_grid.weights
    n_direct = 0.5 * (np.dot(w, st.v**2) + np.dot(w, st.p**2))
    np_direct = np.dot(w, st.v * st.vt) + np.dot(w, st.p * st.pt)
    assert _n_of(st, ref_params, ref_grid) == pytest.approx(n_direct,
                                                            rel=1e-12)
    assert pw.Nprime_of(st, ref_params, ref_grid) == \
        pytest.approx(np_direct, rel=1e-12)


# ---------------------------------------------------------------------------
# varpi arithmetic

def _raw_exponents(m, n):
    """Exponent record without the validation gate, for arithmetic checks
    at combinations outside the standing hypotheses."""
    return pw.Exponents(m1=float(m), m2=float(m), n1=float(n), n2=float(n))


def test_varpi_max_linear_damping(exps23):
    vmax, _, _ = pw.varpi_range(_raw_exponents(1, 3))
    assert vmax == pytest.approx(0.25, abs=1e-14)


def test_varpi_max_quadratic_damping():
    exps = pw.validate_exponents(2, 2, 3, 3)
    vmax, _, _ = pw.varpi_range(exps)
    assert vmax == pytest.approx(1.0 / 12.0, abs=1e-14)


def test_sigma_at_chosen_varpi():
    _, varpi, sigma = pw.varpi_range(_raw_exponents(1, 3))
    assert varpi == pytest.approx(1.0 / 8.0)
    assert sigma == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_varpi_requires_blowup_regime():
    exps = pw.validate_exponents(3, 3, 3, 3)   # n = m
    with pytest.raises(NotBlowupRegime):
        pw.varpi_range(exps)


# ---------------------------------------------------------------------------
# monitor

def test_monitor_inactive_on_decaying_run(ref_params, ref_grid):
    exps = pw.validate_exponents(1, 1, 2, 2)
    st = pw.state_from_modes(ref_grid, [0.05], [0.03], [0.0], [0.0])
    traj = pw.simulate(st, ref_params, exps, ref_grid,
                       pw.StepConfig(dt=1e-3), 1.0, record_every=50)
    rep = pw.monitor(traj, exps)
    assert rep.G_monotone_ok is None     # Etot > 0 throughout
    assert not rep.detected


def test_monitor_on_negative_energy_run(ref_params, ref_grid, exps23):
    st = pw.state_from_modes(ref_grid, [5.0], [4.5], [0.0], [0.0])
    traj = pw.simulate(st, ref_params, exps23, ref_grid,
                       pw.StepConfig(dt=1e-3), 20.0, record_every=10)
    assert traj.outcome == "blowup"
    rep = pw.monitor(traj, exps23)
    assert rep.detected
    assert rep.G_monotone_ok
    assert rep.Y_positive_increasing
    assert rep.criterion == "negative-energy"
    # 0 < G(0) <= G(t) at every record
    g = np.array([-r.Etot for r in traj.records])
    assert g[0] > 0.0
    assert np.all(g >= g[0] * (1.0 - 1e-12))


def test_monitor_clamps_eps_when_nprime_starts_negative(ref_params,
                                                       ref_grid, exps23):
    """Negative energy with N'(0) < 0 (velocities opposite to the
    displacements): E0 = -2.90, N'(0) = -8.145.  Y = G^(1 - varpi) + eps N'
    with eps = min(1, G(0)) would start negative, so the check takes
    eps = -G(0)^(1 - varpi) / (2 N'(0)), about 0.17, and Y stays positive
    and increasing to the blow-up at t = 1.52."""
    st = pw.state_from_modes(ref_grid, [3.0], [2.7], [-3.0], [-2.7])
    traj = pw.simulate(st, ref_params, exps23, ref_grid,
                       pw.StepConfig(dt=1e-3), 3.0, record_every=10)
    assert (traj.outcome, traj.t_detect) == ("blowup", pytest.approx(1.52))
    g0, nprime0 = -traj.records[0].Etot, traj.records[0].nprime
    assert g0 == pytest.approx(2.896, abs=1e-3)
    assert nprime0 == pytest.approx(-8.145, abs=1e-3)
    _, varpi, _ = pw.varpi_range(exps23)
    assert g0 ** (1.0 - varpi) + min(1.0, g0) * nprime0 < 0.0
    rep = pw.monitor(traj, exps23)
    assert rep.criterion == "negative-energy"
    assert rep.G_monotone_ok is True
    assert rep.Y_positive_increasing is True


def test_blowup_exits_through_unstable_side(ref_params, ref_grid, exps23):
    """Observational: the last record of a blow-up run has S < 0."""
    st = pw.state_from_modes(ref_grid, [5.0], [4.5], [0.0], [0.0])
    traj = pw.simulate(st, ref_params, exps23, ref_grid,
                       pw.StepConfig(dt=1e-3), 20.0, record_every=10)
    assert traj.records[-1].sign_fn < 0.0


def test_single_step_g_increment_matches_damping_quadrature(ref_params,
                                                            ref_grid,
                                                            exps23):
    """G(t1) - G(t0) equals the step's damping dissipation to O(dt^2)."""
    st = pw.state_from_modes(ref_grid, [3.0], [2.7], [0.5], [0.0])
    dt = 1e-3
    traj = pw.simulate(st, ref_params, exps23, ref_grid,
                       pw.StepConfig(dt=dt, scheme="implicit-midpoint"),
                       dt, record_every=1)
    g0, g1 = -traj.records[0].Etot, -traj.records[1].Etot
    quad = traj.records[1].damping_cum
    assert g1 - g0 == pytest.approx(quad, rel=1e-4)


# ---------------------------------------------------------------------------
# Smallness thresholds and the time bound

@pytest.fixture
def exps_lin():
    return pw.validate_exponents(1, 1, 2.5, 2.5)


def test_threshold_nonpositive_energy_satisfied(ref_params, ref_grid,
                                                exps_lin):
    """E0 <= 0 with nonzero ||v0||: both conventions are satisfied since
    the right-hand side is positive.  The amplitude is scaled until the
    source potential cancels the stiffness energy."""
    def e0(a):
        st = pw.state_from_modes(ref_grid, [a], [0.0], [0.0], [0.0])
        return pw.total_energy(st, ref_params, exps_lin, ref_grid), st

    lo, hi = 0.1, 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if e0(mid)[0] > 0.0:
            lo = mid
        else:
            hi = mid
    val, st = e0(hi)
    assert val <= 0.0
    assert l2_norm_sq(st.v, ref_grid) > 0.0
    pc = pw.poincare_constant(ref_grid)
    for conv in ("paper-literal", "poincare-consistent"):
        out = pw.theorem210_threshold(st, ref_params, exps_lin, ref_grid,
                                      pc, conv)
        assert out["satisfied"]


def test_threshold_conventions_differ_by_c4(ref_params, ref_grid, exps_lin):
    st = pw.state_from_modes(ref_grid, [0.5], [0.4], [0.1], [0.0])
    pc = pw.poincare_constant(ref_grid)
    lit = pw.theorem210_threshold(st, ref_params, exps_lin, ref_grid, pc,
                                  "paper-literal")
    con = pw.theorem210_threshold(st, ref_params, exps_lin, ref_grid, pc,
                                  "poincare-consistent")
    assert lit["bound_value"] / con["bound_value"] == \
        pytest.approx(pc**4, rel=1e-12)


def test_threshold_independent_recomputation(ref_params, ref_grid, exps_lin):
    st = pw.state_from_modes(ref_grid, [0.5, 0.2], [0.4], [0.1], [0.0])
    pc = pw.poincare_constant(ref_grid)
    out = pw.theorem210_threshold(st, ref_params, exps_lin, ref_grid, pc)
    c = 3.5
    mfac = max((2.0 * 1.0 + 1.0) / 1.0, 2.0 / 1.0)
    rhs = ((c - 2.0) / (2.0 * c) / mfac * (1.0 / pc**2)
           * (l2_norm_sq(st.v, ref_grid) + l2_norm_sq(st.p, ref_grid)))
    assert out["bound_value"] == pytest.approx(rhs, rel=1e-12)


def test_threshold_requires_linear_damping(ref_params, ref_grid, exps23):
    st = pw.state_from_modes(ref_grid, [0.5], [0.4], [0.0], [0.0])
    with pytest.raises(BoundInapplicable):
        pw.theorem210_threshold(st, ref_params, exps23, ref_grid, 0.6)


def test_tmax_bound_trivial_arithmetic():
    """Frozen hand value: c = 4, unit norms and unit cross terms in each
    field, kappa = 2, tau = 1.  numerator = 2(1+1+2) = 8, denominator =
    (c-2)(cross + kappa tau) - 2(vsq+psq) = 2(2+2) - 4 = 4, bound = 2."""
    c = 4.0
    vsq = psq = 1.0
    cross = 2.0          # rho*int(v0 v1) + mu*int(p0 p1) = 1 + 1
    kappa, tau = 2.0, 1.0
    numer = 2.0 * (1.0 * vsq + 1.0 * psq + kappa * tau**2)
    denom = (c - 2.0) * (cross + kappa * tau) - 2.0 * (vsq + psq)
    assert numer / denom == pytest.approx(2.0)


def test_tmax_bound_denominator_sign_governs_applicability(ref_params,
                                                           ref_grid,
                                                           exps_lin):
    """v1 = p1 = 0: the bound exists exactly when the denominator, driven
    by (c-2) kappa tau - 2(vsq+psq), is positive.

    tau is tau_min plus a 1e-6 relative margin, so the denominator cancels
    to about 1e-6 of its terms: one ulp in them moves the bound by about
    1e-10 relative.  The reference therefore keeps the formula's own
    order, (c-2)(cross + kappa tau), and rounds as the bound does."""
    st = pw.state_from_modes(ref_grid, [3.0], [2.7], [0.0], [0.0])
    pc = pw.poincare_constant(ref_grid)
    e0 = pw.total_energy(st, ref_params, exps_lin, ref_grid)
    assert e0 < 0.0   # deep below the threshold, kappa > 0
    kappa, tau, bound = pw.tmax_upper_bound(st, ref_params, exps_lin,
                                            ref_grid, pc)
    vsq = l2_norm_sq(st.v, ref_grid)
    psq = l2_norm_sq(st.p, ref_grid)
    c = exps_lin.c_hat
    cross = pw.Nprime_of(st, ref_params, ref_grid)
    assert cross == 0.0
    denom = (c - 2.0) * (cross + kappa * tau) - 2.0 * (vsq + psq)
    assert denom > 0.0
    assert bound == pytest.approx(2.0 * (vsq + psq + kappa * tau**2) / denom,
                                  rel=1e-12)


def test_tmax_bound_kappa_positive_required(ref_params, ref_grid, exps_lin):
    # kinetic-heavy data: E0 large positive, kappa < 0
    st = pw.state_from_modes(ref_grid, [0.01], [0.01], [5.0], [5.0])
    pc = pw.poincare_constant(ref_grid)
    with pytest.raises(BoundInapplicable):
        pw.tmax_upper_bound(st, ref_params, exps_lin, ref_grid, pc)


def test_tmax_bound_nan_state_is_inapplicable(ref_params, ref_grid, exps_lin):
    """A NaN kappa must not come out as a NaN bound."""
    st = pw.state_from_modes(ref_grid, [float("nan")], [0.0], [0.0], [0.0])
    pc = pw.poincare_constant(ref_grid)
    with pytest.raises(BoundInapplicable) as info:
        pw.tmax_upper_bound(st, ref_params, exps_lin, ref_grid, pc)
    # worded without claiming nan <= 0
    assert str(info.value).startswith("kappa = nan is not > 0")


def test_tau_minimality_inequality(ref_params, ref_grid, exps_lin):
    """The returned tau puts the initial slope strictly above the level the
    construction is designed to assure: M'(0) > 4(vsq+psq)/(c-2) with
    M(t) = rho||v||^2 + mu||p||^2 + kappa (t + tau)^2."""
    st = pw.state_from_modes(ref_grid, [3.0], [2.7], [1.5], [1.35])
    pc = pw.poincare_constant(ref_grid)
    kappa, tau, _ = pw.tmax_upper_bound(st, ref_params, exps_lin, ref_grid,
                                        pc)
    w = ref_grid.weights
    cross = (np.dot(w, st.v * st.vt) + np.dot(w, st.p * st.pt))
    vsq = l2_norm_sq(st.v, ref_grid)
    psq = l2_norm_sq(st.p, ref_grid)
    mprime0 = 2.0 * cross + 2.0 * kappa * tau
    assert mprime0 > 4.0 * (vsq + psq) / (exps_lin.c_hat - 2.0)


def test_blowup_report_attaches_bound(ref_params, ref_grid, exps_lin):
    st = pw.state_from_modes(ref_grid, [3.0], [2.7], [1.5], [1.35])
    pc = pw.poincare_constant(ref_grid)
    traj = pw.simulate(st, ref_params, exps_lin, ref_grid,
                       pw.StepConfig(dt=1e-3), 5.0, record_every=10)
    rep = pw.blowup_report(traj, st, ref_params, exps_lin, ref_grid)
    assert rep.tmax_bound == pw.tmax_upper_bound(st, ref_params, exps_lin,
                                                 ref_grid, pc)[2]
    assert rep.detected
    assert rep.t_detect > 0.0
    assert rep.tmax_bound is not None
    assert np.isfinite(rep.tmax_bound) and rep.tmax_bound > 0.0
    assert rep.t_detect <= rep.tmax_bound
    d = asdict(rep)
    assert d["detected"] and d["kappa"] > 0.0

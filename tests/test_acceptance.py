"""Acceptance criteria for the whole laboratory, one test per criterion.

Reference configuration throughout (unless a criterion says otherwise):
L = 1, nx = 201, rho = mu = 1, alpha = 2, beta = 1, gamma = 1 (alpha1 = 1),
sine-mode initial data, dt = 1e-3.  Tolerances are pinned here and must not
be loosened to make a failing criterion pass.
"""
import time

import numpy as np
import pytest

import piezowave as pw
from piezowave.cli import main
from piezowave.grid import l2_norm_sq


@pytest.fixture(scope="module")
def params():
    return pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)


@pytest.fixture(scope="module")
def grid():
    return pw.Grid1D(1.0, 201)


# ---------------------------------------------------------------------------
# AC-1: energy identity residual converges at second order

def test_ac01_energy_identity_residual_order(params, grid):
    exps = pw.validate_exponents(2, 2, 3, 3)
    st0 = pw.state_from_modes(grid, [1.0], [0.8], [0.5], [-0.3])
    start = time.monotonic()

    def final_residual(dt):
        cfg = pw.StepConfig(dt=dt, scheme="implicit-midpoint")
        traj = pw.simulate(st0, params, exps, grid, cfg, 5.0,
                           record_every=10**9)
        assert traj.outcome == "completed"
        return traj.records[-1].residual

    r = [final_residual(dt) for dt in (2e-3, 1e-3, 5e-4)]
    elapsed = time.monotonic() - start
    assert 3.0 <= r[0] / r[1] <= 5.0
    assert 3.0 <= r[1] / r[2] <= 5.0
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# AC-2: exact conservation with damping and sources disabled

def test_ac02_conservation_sanity(params, grid):
    exps = pw.validate_exponents(1, 1, 2, 2)
    st0 = pw.state_from_modes(grid, [0.3], [0.2], [0.1], [-0.05])
    cfg = pw.StepConfig(dt=1e-3, scheme="implicit-midpoint",
                        damping_on=False, sources_on=False)
    traj = pw.simulate(st0, params, exps, grid, cfg, 10.0,
                       record_every=100)    # 10^4 steps
    e = np.array([r.E for r in traj.records])
    assert np.max(np.abs(e - e[0])) / e[0] <= 1e-9


# ---------------------------------------------------------------------------
# AC-3 / AC-4: potential-well invariance and exponential decay (m = 1, n = 2)

@pytest.fixture(scope="module")
def decay_run(params, grid):
    exps = pw.validate_exponents(1, 1, 2, 2)
    report = pw.well_report(params, exps, grid)
    st0 = pw.state_from_modes(grid, [0.05], [0.03], [0.0], [0.0])
    assert pw.sign_functional(st0, params, exps, grid) > 0.0
    assert pw.total_energy(st0, params, exps, grid) < report.Lambda_star
    start = time.monotonic()
    traj = pw.simulate(st0, params, exps, grid, pw.StepConfig(dt=1e-3),
                       50.0, record_every=50)
    elapsed = time.monotonic() - start
    return exps, report, traj, elapsed


def test_ac03_potential_well_invariance(decay_run):
    exps, report, traj, elapsed = decay_run
    assert traj.outcome == "completed"
    s = np.array([r.sign_fn for r in traj.records])
    e = np.array([r.E for r in traj.records])
    etot = np.array([r.Etot for r in traj.records])
    c = exps.c_hat
    assert np.all(s > 0.0)                                        # (a)
    assert np.all(np.diff(etot) <= 1e-8)                          # (b)
    assert np.all((c - 2.0) / c * e <= etot + 1e-14)              # (c)
    assert np.all(etot <= e + 1e-14)
    assert np.all(e < c * report.Lambda_star / (c - 2.0))         # (d)
    assert elapsed < 60.0


def test_ac04_exponential_decay(decay_run):
    _, _, traj, _ = decay_run
    t = np.array([r.t for r in traj.records])
    etot = np.array([r.Etot for r in traj.records])
    fit = pw.fit_exponential(t, etot)
    assert fit.omega > 0.0
    # tail log-linear R^2
    k0 = fit.tail_start
    y = np.log(etot[k0:])
    a = np.vstack([np.ones_like(t[k0:]), t[k0:]]).T
    pred = a @ np.linalg.lstsq(a, y, rcond=None)[0]
    r2 = 1.0 - np.sum((y - pred) ** 2) / np.sum((y - y.mean()) ** 2)
    assert r2 >= 0.99
    env = etot[0] * np.exp(1.0 - fit.omega * t)
    assert np.all(etot <= env * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# AC-4b: polynomial decay (m = 3, n = 3)

def test_ac04b_polynomial_decay(params, grid):
    exps = pw.validate_exponents(3, 3, 3, 3)
    st0 = pw.state_from_modes(grid, [0.2], [0.12], [0.0], [0.0])
    traj = pw.simulate(st0, params, exps, grid, pw.StepConfig(dt=1e-3),
                       200.0, record_every=200)
    assert traj.outcome == "completed"
    t = np.array([r.t for r in traj.records])
    etot = np.array([r.Etot for r in traj.records])
    k0 = len(t) // 2
    slope = np.polyfit(np.log(t[k0:]), np.log(etot[k0:]), 1)[0]
    target = -2.0 / (exps.m1 - 1.0)     # = -1
    assert target * 1.5 <= slope <= target / 1.5
    eta = pw.eta_from_exponents(exps)
    assert eta == 1.0
    fit = pw.fit_polynomial(t, etot, eta)
    assert fit.omega > 0.0
    env = etot[0] * ((1.0 + eta)
                     / (1.0 + fit.omega * eta * t)) ** (1.0 / eta)
    assert np.all(etot <= env * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# AC-5: negative-energy blow-up (m = 2, n = 3)

def test_ac05_negative_energy_blowup(params, grid):
    exps = pw.validate_exponents(2, 2, 3, 3)
    st0 = pw.state_from_modes(grid, [5.0], [4.5], [0.0], [0.0])
    assert pw.total_energy(st0, params, exps, grid) < 0.0
    traj = pw.simulate(st0, params, exps, grid,
                       pw.StepConfig(dt=1e-3, blowup_cutoff=1e6), 20.0,
                       record_every=10)
    assert traj.outcome == "blowup"
    assert 0.0 < traj.t_detect < 20.0
    g = np.array([-r.Etot for r in traj.records])
    assert np.all(np.diff(g) >= -1e-8)
    assert traj.records[-1].Q > 1e5


# ---------------------------------------------------------------------------
# AC-6: positive-energy blow-up threshold sweep

def test_ac06_threshold_amplitude_sweep(params, grid):
    exps = pw.validate_exponents(2, 2, 3, 3)
    report = pw.well_report(params, exps, grid)

    def state_of(a):
        return pw.state_from_modes(grid, [a], [0.9 * a], [0.0], [0.0])

    # bisect one amplitude into the narrow {S < 0, 0 <= E0 < M} window
    lo, hi = 1.5, 4.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if pw.total_energy(state_of(mid), params, exps, grid) \
                > report.M_threshold / 2.0:
            lo = mid
        else:
            hi = mid
    a_window = 0.5 * (lo + hi)
    amps = sorted(set(np.linspace(0.1, 2.35, 19)) | {a_window})
    assert len(amps) == 20

    start = time.monotonic()
    seen = set()
    for a in amps:
        st0 = state_of(a)
        cls = pw.classify_initial(st0, report, params, exps, grid)
        seen.add(cls)
        traj = pw.simulate(st0, params, exps, grid, pw.StepConfig(dt=1e-3),
                           10.0, record_every=20)
        e0 = pw.total_energy(st0, params, exps, grid)
        s0 = pw.sign_functional(st0, params, exps, grid)
        if s0 < 0.0 and 0.0 <= e0 < report.M_threshold:
            assert traj.outcome == "blowup", f"amplitude {a} must blow up"
        if cls == "global-predicted":
            assert traj.outcome == "completed", f"amplitude {a} must finish"
            assert all(r.Etot >= 0.0 for r in traj.records)
    assert "global-predicted" in seen
    assert "blowup-predicted" in seen
    assert time.monotonic() - start < 600.0


# ---------------------------------------------------------------------------
# AC-7: concavity-method upper bound on the blow-up time

def test_ac07_tmax_bound(params, grid):
    exps = pw.validate_exponents(1, 1, 2.5, 2.5)
    st0 = pw.state_from_modes(grid, [3.0], [2.7], [1.5], [1.35])
    w = grid.weights
    cross = np.dot(w, st0.v * st0.vt) + np.dot(w, st0.p * st0.pt)
    assert cross > 0.0
    pc = pw.poincare_constant(grid)
    thr = pw.theorem210_threshold(st0, params, exps, grid, pc,
                                  "poincare-consistent")
    assert thr["satisfied"]
    kappa, tau, bound = pw.tmax_upper_bound(st0, params, exps, grid, pc)
    assert kappa > 0.0
    assert np.isfinite(tau) and np.isfinite(bound) and bound > 0.0

    traj = pw.simulate(st0, params, exps, grid, pw.StepConfig(dt=1e-3),
                       20.0, record_every=10)
    assert traj.outcome == "blowup"
    assert traj.t_detect <= bound

    # independent re-computation from raw quadratures, 1e-10 agreement
    c = min(exps.n1, exps.n2) + 1.0
    mfac = max((2.0 * params.gamma**2 + 1.0) / params.alpha1,
               2.0 / params.beta)
    vsq = l2_norm_sq(st0.v, grid)
    psq = l2_norm_sq(st0.p, grid)
    e0 = pw.total_energy(st0, params, exps, grid)
    kappa_ref = (1.0 / c) * (-2.0 * c * e0 + (c - 2.0) / mfac / pc**2
                             * min(1.0 / params.rho, 1.0 / params.mu)
                             * (vsq + psq))
    assert kappa == pytest.approx(kappa_ref, rel=1e-10)
    tau_min = max(0.0, (2.0 * (vsq + psq) - (c - 2.0) * cross)
                  / ((c - 2.0) * kappa_ref))
    tau_ref = tau_min + 1e-6 * (1.0 + abs(tau_min))
    bound_ref = (2.0 * (params.rho * vsq + params.mu * psq
                        + kappa_ref * tau_ref**2)
                 / ((c - 2.0) * (cross + kappa_ref * tau_ref)
                    - 2.0 * (vsq + psq)))
    assert bound == pytest.approx(bound_ref, rel=1e-10)


# ---------------------------------------------------------------------------
# AC-8: scalar-analysis oracles

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


def test_ac08_scalar_oracles(params, grid):
    # lambda* closed form for n1 = n2
    exps = pw.validate_exponents(1, 1, 2.5, 2.5)
    st = pw.state_from_modes(grid, [0.4, -0.1], [0.3], [0.0], [0.0])
    from piezowave.grid import quadratic_form
    q = quadratic_form(st.v, st.p, grid, params)
    a, b = pw.source_norms(st, exps, grid)
    closed = (q / (a + b)) ** (1.0 / (exps.n1 - 1.0))
    lam, _ = pw.nehari_lambda_star(st, params, exps, grid)
    assert abs(lam - closed) / closed <= 1e-10

    # s* golden-ratio case
    s, _ = pw.s_star_solve(1.0, 3.0, 5.0)
    assert abs(s - (np.sqrt(5.0) - 1.0) / 2.0) <= 1e-10

    # y0 = s*/2 on 50 random draws, checked against an independent bisection
    # of the y0 equation (the library derives y0 from s*)
    rng = np.random.default_rng(2024)
    for _ in range(50):
        c = rng.uniform(0.05, 5.0)
        n1 = rng.uniform(1.1, 5.5)
        n2 = rng.uniform(1.1, 5.5)
        s_i, _ = pw.s_star_solve(c, n1, n2)
        y0, _ = pw.y0_and_threshold(c, n1, n2, min(n1, n2) + 1.0)
        assert abs(y0 - s_i / 2.0) <= 1e-12 * max(1.0, s_i)
        assert abs(y0 - _y0_oracle(c, n1, n2)) <= 1e-12 * max(1.0, s_i)

    # check_delta: the three listed examples
    s33, _ = pw.s_star_solve(1.0, 3.0, 3.0)
    assert pw.check_delta(s33 / 2.0, s33, 1.0, 3.0, 3.0)["admissible"]
    s35, _ = pw.s_star_solve(1.0, 3.0, 5.0)
    assert not pw.check_delta(1e-9, s35, 1.0, 3.0, 5.0)["admissible"]
    out = pw.check_delta(0.3, s35, 1.0, 3.0, 5.0)
    r = s35 - 0.3
    assert out["C_tilde"] == pytest.approx(r + r * r, rel=1e-12)
    assert out["admissible"]


# ---------------------------------------------------------------------------
# AC-9: sweep determinism across parallelism

def test_ac09_sweep_determinism(tmp_path):
    cfg_text = """
[material]
rho = 1.0
alpha = 2.0
beta = 1.0
gamma = 1.0
mu = 1.0

[exponents]
m1 = 2.0
m2 = 2.0
n1 = 3.0
n2 = 3.0

[grid]
L = 1.0
nx = 101

[integrator]
dt = 1e-3

[initial]
v0 = {v0}
p0 = 0.0
v1 = 0.0
p1 = 0.0

[run]
t_end = 1.0
record_every = 50
seed = 0

[output]
outdir = {outdir}

[sweep]
max_parallel = {mp}

[sweep.axes]
initial.v0 = 0.05; 0.5; 5.0
"""
    outputs = {}
    for mp in (1, 8):
        sub = tmp_path / f"mp{mp}"
        sub.mkdir()
        cfg = sub / "sweep.cfg"
        cfg.write_text(cfg_text.format(v0="0.05", outdir=str(sub / "out"),
                                       mp=mp), encoding="utf-8")
        assert main(["sweep", str(cfg)]) == 0
        outputs[mp] = (sub / "out" / "sweep.csv").read_bytes()
    assert outputs[1] == outputs[8]

import contextlib
import warnings

import numpy as np
import pytest

import piezowave as pw
from piezowave.diagnostics import CSV_FIELDS, make_record, well_side
from piezowave.grid import grad


@pytest.fixture
def exps():
    return pw.validate_exponents(2, 2, 3, 3)


def _random_state(grid, rng, scale=1.0):
    return pw.State(*(scale * rng.standard_normal(grid.nx) for _ in range(4)))


def test_csv_field_order_frozen():
    assert CSV_FIELDS == ("t", "E", "J", "Etot", "damping_cum", "residual",
                          "sign_fn", "Q", "vnorm_n1", "pnorm_n2")


def test_energies_against_direct_resummation(ref_params, ref_grid, exps, rng):
    """Re-derive every functional from raw trapezoid sums: 1e-12 agreement."""
    st = _random_state(ref_grid, rng)
    st.v[0] = st.p[0] = 0.0
    w = ref_grid.weights
    dx = ref_grid.dx
    gv, gp = grad(st.v, ref_grid), grad(st.p, ref_grid)
    kin = 0.5 * (np.dot(w, st.vt**2) + np.dot(w, st.pt**2))
    q = dx * (1.0 * np.dot(gv, gv) + np.dot(gv - gp, gv - gp))
    vn = np.dot(w, np.abs(st.v) ** 4)
    pn = np.dot(w, np.abs(st.p) ** 4)
    j = 0.5 * q - vn / 4.0 - pn / 4.0

    assert pw.kinetic_energy(st, ref_params, ref_grid) == \
        pytest.approx(kin, rel=1e-12)
    record = make_record(st, ref_params, exps, ref_grid, 0.0, 0.0)
    assert record.E == pytest.approx(kin + 0.5 * q, rel=1e-12)
    assert record.J == pytest.approx(j, rel=1e-12)
    assert pw.total_energy(st, ref_params, exps, ref_grid) == \
        pytest.approx(kin + j, rel=1e-12)
    assert pw.sign_functional(st, ref_params, exps, ref_grid) == \
        pytest.approx(q - vn - pn, rel=1e-12)


def test_source_and_damping_norms(ref_params, ref_grid, exps, rng):
    st = _random_state(ref_grid, rng)
    w = ref_grid.weights
    vn, pn = pw.source_norms(st, exps, ref_grid)
    assert vn == pytest.approx(np.dot(w, np.abs(st.v) ** 4), rel=1e-13)
    dm1, dm2 = pw.damping_norms(st, exps, ref_grid)
    assert dm1 == pytest.approx(np.dot(w, np.abs(st.vt) ** 3), rel=1e-13)
    assert dm2 == pytest.approx(np.dot(w, np.abs(st.pt) ** 3), rel=1e-13)


def test_potential_energy_lambda_scaling(ref_params, ref_grid, exps, rng):
    """J(c v, c p) = c^2 Q/2 - c^4 (sources)/4 for n1 = n2 = 3."""
    st = _random_state(ref_grid, rng, scale=0.5)
    st.vt[:] = st.pt[:] = 0.0
    from piezowave.grid import quadratic_form
    q = quadratic_form(st.v, st.p, ref_grid, ref_params)
    vn, pn = pw.source_norms(st, exps, ref_grid)
    for c in (0.5, 1.5, 3.0):
        expected = 0.5 * c**2 * q - c**4 * (vn + pn) / 4.0
        got = make_record(st.scaled(c), ref_params, exps, ref_grid, 0.0,
                          0.0).J
        assert got == pytest.approx(expected, rel=1e-12)


def test_well_side_tristate(ref_params, ref_grid, exps):
    z = pw.zero_state(ref_grid)
    assert well_side(z, ref_params, exps, ref_grid) == "W1-side"
    small = pw.state_from_modes(ref_grid, [0.1], [0.1], [0.0], [0.0])
    assert well_side(small, ref_params, exps, ref_grid) == "W1-side"
    big = small.scaled(100.0)
    assert well_side(big, ref_params, exps, ref_grid) == "W2-side"
    # scale onto the Nehari set: S(c u) = 0 has a positive root
    lam, _ = pw.nehari_lambda_star(small, ref_params, exps, ref_grid)
    on = small.scaled(lam)
    assert well_side(on, ref_params, exps, ref_grid) == "boundary"


def test_make_record_residual_definition(ref_params, ref_grid, exps, rng):
    st = _random_state(ref_grid, rng, scale=0.2)
    etot = pw.total_energy(st, ref_params, exps, ref_grid)
    rec = make_record(st, ref_params, exps, ref_grid, damping_cum=0.25,
                      etot0=etot + 0.25)
    assert rec.residual == pytest.approx(0.0, abs=1e-15)
    assert rec.Etot == pytest.approx(etot, rel=1e-14)


def test_energy_identity_residual_series_converges(ref_params, ref_grid):
    """The recorded residual is the discrete energy-identity defect and
    shrinks under dt refinement with midpoint-iterated sources."""
    exps = pw.validate_exponents(2, 2, 3, 3)
    st = pw.state_from_modes(ref_grid, [1.0, 0.8], [0.5], [0.3], [0.0])

    def final_resid(dt):
        cfg = pw.StepConfig(dt=dt, scheme="implicit-midpoint")
        traj = pw.simulate(st, ref_params, exps, ref_grid, cfg, 1.0,
                           record_every=10**9)
        return traj.records[-1].residual

    assert final_resid(2e-3) > final_resid(5e-4)


@pytest.mark.parametrize("functional", [
    "total_energy", "sign_functional", "well_side", "classify_initial",
    "kinetic_energy", "make_record", "source_norms", "damping_norms",
    "N_of", "Nprime_of", "nehari_lambda_star", "theorem210_threshold",
    "tmax_upper_bound"])
def test_energies_of_overflowing_state_raise_no_warning(functional,
                                                        ref_params):
    """Every public energy and bound runs in the quiet error state, so an
    overflowing state gives inf/NaN values or a typed error, not numpy
    RuntimeWarnings."""
    grid = pw.Grid1D(1.0, 101)
    exps = pw.validate_exponents(1, 1, 2, 2)     # the bounds need m = 1
    st = pw.state_from_modes(grid, [1e308], [1e200], [1e200], [1e200])
    report = pw.WellReport(B1=1.0, B2=1.0, C_hat=1.0, s_star=1.0,
                           Lambda_star=1.0, y0=0.5, M_threshold=0.1,
                           poincare_c=1.0)
    args = {"classify_initial": (report, ref_params, exps, grid),
            "kinetic_energy": (ref_params, grid),
            "make_record": (ref_params, exps, grid, 0.0, 0.0),
            "source_norms": (exps, grid), "damping_norms": (exps, grid),
            "N_of": (ref_params, grid), "Nprime_of": (ref_params, grid),
            "theorem210_threshold": (ref_params, exps, grid, 0.6),
            "tmax_upper_bound": (ref_params, exps, grid, 0.6),
            }.get(functional, (ref_params, exps, grid))
    # NaN energies leave these two without a result to return
    typed = {"nehari_lambda_star": pw.NoConvergence,
             "tmax_upper_bound": pw.BoundInapplicable}.get(functional)
    with warnings.catch_warnings(), \
            (pytest.raises(typed) if typed else contextlib.nullcontext()):
        warnings.simplefilter("error")
        getattr(pw, functional)(st, *args)

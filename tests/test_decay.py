from dataclasses import asdict

import numpy as np
import pytest

import piezowave as pw
from piezowave import decay
from piezowave.errors import InvalidArgument, NonPositiveSeries


def _times(n=200, t_end=20.0):
    return np.linspace(0.0, t_end, n)


# ---------------------------------------------------------------------------
# exponential

def test_exponential_self_fit():
    t = _times()
    e = 2.0 * np.exp(1.0 - 0.7 * t)
    fit = pw.fit_exponential(t, e)
    assert fit.omega == pytest.approx(0.7, abs=1e-6)
    assert fit.eta == 0.0
    assert fit.envelope_ok
    assert fit.accepted
    assert fit.rmse < 1e-10


def test_exponential_constant_series_rejected():
    t = _times()
    fit = pw.fit_exponential(t, np.full_like(t, 3.0))
    assert fit.omega == pytest.approx(0.0, abs=1e-12)
    assert not fit.accepted


def test_exponential_rejects_nonpositive():
    t = _times()
    e = 1.0 - t / 10.0
    with pytest.raises(NonPositiveSeries):
        pw.fit_exponential(t, e)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("fit", [
    lambda t, e: pw.fit_exponential(t, e),
    lambda t, e: pw.fit_polynomial(t, e, 1.0),
    lambda t, e: pw.fit_logarithmic(t, e, 1.0, 2.0),
], ids=["exp", "poly", "log"])
def test_fits_reject_nonfinite_series(fit, bad):
    """NaN and inf are not positive energies: `e <= 0` misses both."""
    t = _times()
    e = np.exp(-t)
    e[-3:] = bad
    with pytest.raises(NonPositiveSeries):
        fit(t, e)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fit", [
    lambda t, e: pw.fit_exponential(t, e),
    lambda t, e: pw.fit_polynomial(t, e, 1.0),
    lambda t, e: pw.fit_logarithmic(t, e, 1.0, 2.0),
], ids=["exp", "poly", "log"])
def test_fits_reject_nonfinite_times(fit, bad):
    """A non-finite time is an invalid argument, raised before the least
    squares solve, which would fail inside LAPACK."""
    with pytest.raises(InvalidArgument, match="times must be finite"):
        fit([0.0, 1.0, 2.0, bad], [1.0, 0.5, 0.25, 0.1])


def test_log_fit_rejects_nonfinite_psi():
    """psi(t) = ln((C+t)/C) is NaN where C + t < 0 and -inf where it is
    0: the log fit rejects both before the least squares solve."""
    for times in ([0.0, 1.0, -5.0, -6.0], [0.0, 1.0, 2.0, -2.0]):
        with pytest.raises(InvalidArgument, match="needs C \\+ t > 0"):
            pw.fit_logarithmic(times, [1.0, 0.5, 0.25, 0.1], 1.0, 2.0)


# ---------------------------------------------------------------------------
# polynomial

def test_polynomial_self_fit():
    t = _times()
    eta, omega = 1.0, 0.5
    e = 3.0 * ((1.0 + eta) / (1.0 + omega * eta * t)) ** (1.0 / eta)
    fit = pw.fit_polynomial(t, e, eta)
    assert fit.omega == pytest.approx(omega, abs=1e-6)
    assert fit.envelope_ok
    assert fit.accepted


def test_polynomial_exact_linearization():
    """E = 1/(1+t) with eta = 1: E^(-1) = 1 + t, slope 1, intercept 1."""
    t = _times()
    e = 1.0 / (1.0 + t)
    a = np.vstack([np.ones_like(t), t]).T
    intercept, slope = np.linalg.lstsq(a, e ** -1.0, rcond=None)[0]
    assert slope == pytest.approx(1.0, abs=1e-10)
    assert intercept == pytest.approx(1.0, abs=1e-10)
    fit = pw.fit_polynomial(t, e, 1.0)
    assert fit.omega == pytest.approx(1.0, abs=1e-6)


def test_polynomial_requires_positive_eta():
    t = _times()
    with pytest.raises(ValueError):
        pw.fit_polynomial(t, np.exp(-t), 0.0)


@pytest.mark.parametrize("fit", [
    lambda t, e: pw.fit_polynomial(t, e, 1e200),
    lambda t, e: pw.fit_logarithmic(t, e, 1e200, 2.0),
], ids=["poly", "log"])
def test_nan_envelope_fails_envelope_check(fit):
    """E^(-eta) overflows at eta = 1e200, so omega and the envelope base
    are NaN: the envelope check must fail, not pass as an infinite
    envelope."""
    result = fit([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.25, 0.125])
    assert np.isnan(result.omega)
    assert result.envelope_ok is False
    assert result.accepted is False


# ---------------------------------------------------------------------------
# logarithmic

def test_logarithmic_self_fit():
    t = _times()
    eta, omega, C = 1.0, 0.3, 2.0
    psi = np.log((C + t) / C)
    e = 1.5 * ((1.0 + eta) / (1.0 + omega * eta * psi)) ** (1.0 / eta)
    fit = pw.fit_logarithmic(t, e, eta, C)
    assert fit.omega == pytest.approx(omega, abs=1e-6)
    assert fit.accepted


def test_logarithmic_data_misfit_by_polynomial():
    t = _times()
    eta, omega, C = 1.0, 0.3, 2.0
    psi = np.log((C + t) / C)
    e = 1.5 * ((1.0 + eta) / (1.0 + omega * eta * psi)) ** (1.0 / eta)
    log_fit = pw.fit_logarithmic(t, e, eta, C)
    poly_fit = pw.fit_polynomial(t, e, eta)
    assert poly_fit.rmse > log_fit.rmse


def test_logarithmic_requires_C_at_least_one():
    t = _times()
    with pytest.raises(ValueError):
        pw.fit_logarithmic(t, np.exp(-t), 1.0, 0.5)


def test_psi_properties():
    t = _times()
    for C in (1.0, 2.0, 7.5):
        psi = np.log((C + t) / C)
        assert psi[0] == 0.0
        assert np.all(np.diff(psi) > 0.0)
        chi = 1.0 / (C + t)
        assert np.all(chi * (1.0 + t) <= 1.0 + 1e-15)


# ---------------------------------------------------------------------------
# selection and envelope domination

def test_model_selection_recovers_generating_family(rng):
    t = _times(300, 30.0)
    for _ in range(30):
        omega = rng.uniform(0.05, 1.5)
        e0 = rng.uniform(0.5, 5.0)
        # exponential family, eta = 0
        e = e0 * np.exp(1.0 - omega * t)
        assert pw.select_model(t, e, 0.0).model == "exponential"
        # polynomial family
        eta = rng.uniform(0.5, 2.0)
        e = e0 * ((1.0 + eta) / (1.0 + omega * eta * t)) ** (1.0 / eta)
        assert pw.select_model(t, e, eta).model == "polynomial"
        # logarithmic family
        C = rng.uniform(1.0, 5.0)
        psi = np.log((C + t) / C)
        e = e0 * ((1.0 + eta) / (1.0 + omega * eta * psi)) ** (1.0 / eta)
        assert pw.select_model(t, e, eta, C=C).model == "logarithmic"


@pytest.mark.parametrize("eta", [0.0, 0.7])
def test_select_model_is_the_best_explicit_fit(eta, monkeypatch):
    """select_model makes the explicit fit calls, in order (at eta = 0 the
    exponential, then the other two at the nominal eta = 1), and returns
    the one of lowest rmse, field for field."""
    t = _times()
    e = 2.0 * (1.7 / (1.0 + 0.3 * t)) ** (1.0 / 0.7) * (1.0 + 0.01 * np.sin(t))
    probe = eta or 1.0
    explicit = ([pw.fit_exponential(t, e)] if eta == 0.0 else []) + [
        pw.fit_polynomial(t, e, probe), pw.fit_logarithmic(t, e, probe, 3.0)]
    calls = []

    def recorded(fit):
        def call(*args):
            calls.append(fit(*args))
            return calls[-1]
        return call
    for name in ("fit_exponential", "fit_polynomial", "fit_logarithmic"):
        monkeypatch.setattr(decay, name, recorded(getattr(decay, name)))
    chosen = pw.select_model(t, e, eta, C=3.0)
    assert [asdict(f) for f in calls] == [asdict(f) for f in explicit]
    assert asdict(chosen) == asdict(min(explicit, key=lambda f: f.rmse))


def test_envelope_dominates_at_reported_omega():
    t = _times()
    for eta, make in ((0.0, lambda: 2.0 * np.exp(1.0 - 0.4 * t)),
                      (1.0, lambda: 2.0 * (2.0 / (1.0 + 0.4 * t)))):
        e = make()
        if eta == 0.0:
            fit = pw.fit_exponential(t, e)
            env = e[0] * np.exp(1.0 - fit.omega * t)
        else:
            fit = pw.fit_polynomial(t, e, eta)
            env = e[0] * ((1.0 + eta)
                          / (1.0 + fit.omega * eta * t)) ** (1.0 / eta)
        assert fit.accepted
        assert np.all(e <= env * (1.0 + 1e-9))


def test_eta_from_exponents():
    assert pw.eta_from_exponents(pw.validate_exponents(1, 1, 2, 2)) == 0.0
    assert pw.eta_from_exponents(pw.validate_exponents(3, 2, 3, 3)) == 1.0
    assert pw.eta_from_exponents(pw.validate_exponents(2, 2, 3, 3)) == 0.5

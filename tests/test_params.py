import dataclasses
import math

import pytest

import piezowave as pw
from piezowave.errors import (AssumptionViolated, NonPositiveAlpha1,
                              NonPositiveParameter)


def test_make_params_computes_alpha1():
    p = pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)
    assert p.alpha1 == 1.0


def test_gamma_may_be_negative_or_zero():
    assert pw.make_params(1.0, 2.0, 1.0, -1.0, 1.0).alpha1 == 1.0
    assert pw.make_params(1.0, 2.0, 1.0, 0.0, 1.0).alpha1 == 2.0


@pytest.mark.parametrize("kwargs", [
    dict(rho=0.0), dict(rho=-1.0), dict(alpha=0.0), dict(beta=-2.0),
    dict(mu=0.0),
])
def test_nonpositive_constants_rejected(kwargs):
    base = dict(rho=1.0, alpha=2.0, beta=1.0, gamma=1.0, mu=1.0)
    base.update(kwargs)
    with pytest.raises(NonPositiveParameter):
        pw.make_params(**base)


def test_non_finite_rejected():
    with pytest.raises(NonPositiveParameter):
        pw.make_params(math.nan, 2.0, 1.0, 1.0, 1.0)
    with pytest.raises(NonPositiveParameter):
        pw.make_params(1.0, math.inf, 1.0, 1.0, 1.0)


def test_alpha1_must_be_positive():
    with pytest.raises(NonPositiveAlpha1):
        pw.make_params(1.0, 1.0, 1.0, 1.0, 1.0)   # alpha1 = 0
    with pytest.raises(NonPositiveAlpha1):
        pw.make_params(1.0, 1.0, 1.0, 2.0, 1.0)   # alpha1 = -3


def test_validate_exponents_basic():
    e = pw.validate_exponents(1, 2, 2, 3)
    assert e.c_hat == 3.0
    assert e.blowup_regime


def test_c_hat_is_weaker_exponent():
    assert pw.validate_exponents(3, 3, 4, 2).c_hat == 3.0


@pytest.mark.parametrize("m1,m2,n1,n2,msg", [
    (0.5, 1, 2, 2, "m1"),
    (1, 0.9, 2, 2, "m2"),
    (1, 1, 1.0, 2, "n1"),
    (1, 1, 2, 6.0, "n2"),
    (1, 1, 3.1, 2, "n1(m1+1)/m1"),    # 3.1*2 = 6.2 >= 6
])
def test_hypothesis_violations_name_the_clause(m1, m2, n1, n2, msg):
    with pytest.raises(AssumptionViolated) as exc:
        pw.validate_exponents(m1, m2, n1, n2)
    assert msg.split("(")[0] in str(exc.value)


def test_blowup_mode_requires_source_dominance():
    assert pw.validate_exponents(1, 1, 2, 2).blowup_regime
    assert not pw.validate_exponents(2, 2, 2, 2).blowup_regime   # n = m
    with pytest.raises(AssumptionViolated):
        pw.validate_exponents(5.0, 1, 5.5, 2)    # n1(m1+1)/m1 = 6.6


def test_records_hold_only_the_given_values():
    """c_hat, blowup_regime and alpha1 are computed, so a record built
    directly, with no check, carries the same derived values."""
    direct = pw.Exponents(1, 1, 2, 2)
    checked = pw.validate_exponents(1, 1, 2, 2)
    assert direct == checked
    assert (direct.c_hat, direct.blowup_regime) == \
        (checked.c_hat, checked.blowup_regime) == (3.0, True)
    assert pw.MaterialParams(1, 2, 1, 1, 1).alpha1 == 1.0
    names = {record: [f.name for f in dataclasses.fields(record)]
             for record in (pw.Exponents, pw.MaterialParams, pw.WellReport)}
    assert names[pw.Exponents] == ["m1", "m2", "n1", "n2"]
    assert names[pw.MaterialParams] == ["rho", "alpha", "beta", "gamma", "mu"]
    assert names[pw.WellReport] == ["B1", "B2", "C_hat", "s_star",
                                    "Lambda_star", "y0", "M_threshold",
                                    "poincare_c"]

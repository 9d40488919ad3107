"""Physical parameters and exponent hypotheses of the coupled beam system."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AssumptionViolated, NonPositiveAlpha1, NonPositiveParameter


@dataclass(frozen=True)
class MaterialParams:
    """Constants of the coupled system; alpha1 and M are computed from them.

    rho:   mass density
    alpha: elastic stiffness
    beta:  impermeability coefficient
    gamma: piezoelectric coupling (any real)
    mu:    magnetic permeability
    """

    rho: float
    alpha: float
    beta: float
    gamma: float
    mu: float

    def __post_init__(self):
        # alpha1 = alpha - gamma^2 beta, set once as an attribute and no
        # field: the per-step norms read it, faster than a property call
        try:
            alpha1 = self.alpha - self.gamma ** 2 * self.beta
        except OverflowError:           # gamma^2 beyond the float range
            alpha1 = -math.inf
        object.__setattr__(self, "alpha1", alpha1)

    @property
    def M(self) -> float:
        """Sandwich constant M = max{(2 gamma^2 + 1)/alpha1, 2/beta}."""
        return max((2.0 * self.gamma ** 2 + 1.0) / self.alpha1,
                   2.0 / self.beta)


def c_hat_of(n1: float, n2: float) -> float:
    """c_hat = min(n1 + 1, n2 + 1) governs every sandwich constant."""
    return min(n1 + 1.0, n2 + 1.0)


@dataclass(frozen=True)
class Exponents:
    """Damping powers m1, m2 and source powers n1, n2; the rest derives."""

    m1: float
    m2: float
    n1: float
    n2: float

    @property
    def c_hat(self) -> float:
        return c_hat_of(self.n1, self.n2)

    @property
    def blowup_regime(self) -> bool:
        """Sources stronger than damping: n_i > m_i with n_i, m_i < 5."""
        return self.m1 < self.n1 < 5 and self.m2 < self.n2 < 5


def make_params(rho, alpha, beta, gamma, mu) -> MaterialParams:
    """Build MaterialParams, rejecting non-positive constants and alpha1 <= 0."""
    values = {"rho": rho, "alpha": alpha, "beta": beta, "gamma": gamma, "mu": mu}
    for name, val in values.items():
        if not math.isfinite(val):
            raise NonPositiveParameter(f"{name} = {val} is not finite")
    for name in ("rho", "alpha", "beta", "mu"):
        if values[name] <= 0:
            raise NonPositiveParameter(f"{name} = {values[name]} must be > 0")
    params = MaterialParams(**values)
    if params.alpha1 <= 0:
        raise NonPositiveAlpha1(
            f"alpha - gamma^2*beta = {params.alpha1:.6g} must be > 0"
        )
    return params


def validate_exponents(m1, m2, n1, n2) -> Exponents:
    """Check every standing hypothesis on the powers and return Exponents."""
    for i, m in ((1, m1), (2, m2)):
        if not m >= 1:
            raise AssumptionViolated(f"m{i} = {m} violates m{i} >= 1")
    for i, n in ((1, n1), (2, n2)):
        if not 1 < n < 6:
            raise AssumptionViolated(f"n{i} = {n} violates 1 < n{i} < 6")
    for i, (m, n) in ((1, (m1, n1)), (2, (m2, n2))):
        q = n * (m + 1) / m
        if not q < 6:
            raise AssumptionViolated(f"n{i}(m{i}+1)/m{i} = {q:.6g} not < 6")
    return Exponents(m1=float(m1), m2=float(m2), n1=float(n1), n2=float(n2))

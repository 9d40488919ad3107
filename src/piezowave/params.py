"""Physical parameters and exponent hypotheses of the coupled beam system."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AssumptionViolated, NonPositiveAlpha1, NonPositiveParameter

VALID_MODES = ("general", "global-decay", "blow-up")


@dataclass(frozen=True)
class MaterialParams:
    """Constants of the coupled system.

    rho:   mass density
    alpha: elastic stiffness
    beta:  impermeability coefficient
    gamma: piezoelectric coupling (any real)
    mu:    magnetic permeability
    alpha1: reduced stiffness alpha - gamma^2 * beta, required positive
    """

    rho: float
    alpha: float
    beta: float
    gamma: float
    mu: float
    alpha1: float

    @property
    def M(self) -> float:
        """Sandwich constant M = max{(2 gamma^2 + 1)/alpha1, 2/beta}."""
        return max((2.0 * self.gamma ** 2 + 1.0) / self.alpha1,
                   2.0 / self.beta)


@dataclass(frozen=True)
class Exponents:
    """Damping powers m1, m2 and source powers n1, n2.

    c_hat = min(n1 + 1, n2 + 1) governs every sandwich constant.
    """

    m1: float
    m2: float
    n1: float
    n2: float
    c_hat: float
    blowup_regime: bool


def make_params(rho, alpha, beta, gamma, mu) -> MaterialParams:
    """Build MaterialParams, rejecting non-positive constants and alpha1 <= 0."""
    values = {"rho": rho, "alpha": alpha, "beta": beta, "gamma": gamma, "mu": mu}
    for name, val in values.items():
        if not math.isfinite(val):
            raise NonPositiveParameter(f"{name} = {val} is not finite")
    for name in ("rho", "alpha", "beta", "mu"):
        if values[name] <= 0:
            raise NonPositiveParameter(f"{name} = {values[name]} must be > 0")
    try:
        alpha1 = alpha - gamma**2 * beta
    except OverflowError:           # gamma^2 beyond the float range
        alpha1 = -math.inf
    if alpha1 <= 0:
        raise NonPositiveAlpha1(
            f"alpha - gamma^2*beta = {alpha1:.6g} must be > 0"
        )
    return MaterialParams(rho=rho, alpha=alpha, beta=beta, gamma=gamma, mu=mu,
                          alpha1=alpha1)


def validate_exponents(m1, m2, n1, n2, mode="general") -> Exponents:
    """Check every standing hypothesis on the powers and return Exponents.

    mode selects the extra requirements:
      general      -- base hypotheses only
      global-decay -- additionally n_i <= 5
      blow-up      -- additionally n_i > m_i with n_i < 5 and m_i < 5
    """
    if mode not in VALID_MODES:
        raise ValueError(f"mode must be one of {VALID_MODES}, got {mode!r}")
    for i, m in ((1, m1), (2, m2)):
        if not m >= 1:
            raise AssumptionViolated(f"m{i} = {m} violates m{i} >= 1")
    for i, n in ((1, n1), (2, n2)):
        if not 1 < n < 6:
            raise AssumptionViolated(f"n{i} = {n} violates 1 < n{i} < 6")
    for i, (m, n) in ((1, (m1, n1)), (2, (m2, n2))):
        q = n * (m + 1) / m
        if not q < 6:
            raise AssumptionViolated(
                f"n{i}(m{i}+1)/m{i} = {q:.6g} not < 6"
            )
    if mode == "global-decay":
        for i, n in ((1, n1), (2, n2)):
            if n > 5:
                raise AssumptionViolated(f"n{i} = {n} violates n{i} <= 5 (global decay)")
    blowup_regime = (n1 > m1 and n2 > m2
                     and n1 < 5 and n2 < 5 and m1 < 5 and m2 < 5)
    if mode == "blow-up" and not blowup_regime:
        raise AssumptionViolated(
            "blow-up mode needs n_i > m_i with n_i < 5 and m_i < 5; "
            f"got m=({m1},{m2}), n=({n1},{n2})"
        )
    c_hat = min(n1 + 1.0, n2 + 1.0)
    return Exponents(m1=float(m1), m2=float(m2), n1=float(n1), n2=float(n2),
                     c_hat=c_hat, blowup_regime=blowup_regime)

"""Exception types shared across the package, and the one count check."""
from numbers import Integral


class PiezowaveError(Exception):
    """Base class for all package errors."""


class InvalidArgument(PiezowaveError, ValueError):
    """An argument is outside the domain the operation is defined on."""


class NonPositiveParameter(PiezowaveError):
    """A physical constant that must be strictly positive is not."""


class NonPositiveAlpha1(PiezowaveError):
    """The reduced stiffness alpha - gamma^2 * beta is not positive."""


class AssumptionViolated(PiezowaveError):
    """An exponent hypothesis fails; the message names the clause."""


class NoConvergence(PiezowaveError):
    """An iterative solve exhausted its budget (tolerance bug, not math)."""


class ZeroState(PiezowaveError):
    """Operation undefined on the identically-zero state."""


class DeltaOutOfRange(PiezowaveError):
    """delta must lie strictly between 0 and s_star."""


class NotBlowupRegime(PiezowaveError):
    """Requires source powers to dominate damping powers (n_i > m_i)."""


class BoundInapplicable(PiezowaveError):
    """Hypotheses of the blow-up time bound are not met."""


class NonPositiveSeries(PiezowaveError):
    """Decay fitting needs a finite, strictly positive energy series."""


class ConfigParse(PiezowaveError):
    """Text that does not parse: a run or sweep config, or the series of
    `piezowave fit`, which wraps its bad options too, naming file and model."""


def check_count(name: str, value, least: int) -> None:
    """InvalidArgument unless value is a (numpy) integer >= least, no bool."""
    if isinstance(value, bool) or not (isinstance(value, Integral)
                                       and value >= least):
        raise InvalidArgument(f"{name} = {value} must be an integer >= {least}")

"""1D grid on [0, L], discrete operators, norms and quadratic forms.

Boundary closure: Dirichlet clamping at x = 0, and homogeneous Neumann for
both fields at x = L enforced through mirror ghost nodes.  The coupled
Neumann pair at x = L reduces algebraically to v_x(L) = p_x(L) = 0 because
its 2x2 coefficient matrix has determinant beta * alpha1 > 0.

Quadrature convention: volume (L^q) norms use the trapezoid rule on nodes;
gradient norms use the cell-midpoint rule on forward differences.  With
this pairing the discrete summation-by-parts identity
<(alpha D2 v - gamma beta D2 p, beta D2 p - gamma beta D2 v), (v, p)>_w
= -quadratic_form(v, p), with D2 = second_difference(grid), holds to
roundoff for fields that vanish at x = 0.

Every inverse of D2 in the package, the stepper's midpoint matrices and
the well's gradient stiffness alike, is one symmetric positive definite
`tridiagonal_solver` (LDL^T) on bands built from `second_difference`; the
stepper's two eigen-systems share one block-diagonal solver.  The stepper
symmetrizes I - c D2 by halving its mirror row at x = L.  Its LAPACK
(dpttrf, dpttrs) is scipy's extension scipy.linalg._flapack, loaded from
its file so that scipy.linalg itself is never imported.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from importlib import machinery, util

import numpy as np

from .errors import InvalidArgument, check_count
from .params import MaterialParams


def _load_flapack():
    """scipy.linalg._flapack loaded from its file, so that scipy.linalg's
    __init__ (numpy.f2py, numpy.testing, ...) never runs; whichever comes
    first, its functions are scipy.linalg.lapack's."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:         # scipy.linalg was imported first
        return sys.modules[name]
    scipy = util.find_spec("scipy")     # runs no __init__
    spec = scipy and machinery.PathFinder.find_spec(name, [
        os.path.join(d, "linalg") for d in scipy.submodule_search_locations])
    if spec is None:
        raise ImportError(f"cannot find {name}", name=name)
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules.pop(name, None)     # scipy's own import adds it
    return module


lapack = _load_flapack()

# numpy error state under which overflow yields inf/NaN without a warning;
# the blow-up check, a finiteness check or a comparison then decides
QUIET = dict(over="ignore", invalid="ignore")

# Most nodes a grid may have: about 160 MB of Stepper arrays (estimated).
MAX_NX = 10**6


@dataclass(frozen=True)
class Grid1D:
    L: float
    nx: int

    def __post_init__(self):
        if not 0.0 < self.L < np.inf:
            raise InvalidArgument(f"L = {self.L} must be finite and > 0")
        check_count("nx", self.nx, 3)
        if self.nx > MAX_NX:
            raise InvalidArgument(f"nx = {self.nx} must be <= {MAX_NX}")
        dx = self.L / (self.nx - 1)
        # the operators scale like 1/dx^2
        if not 0.0 < dx * dx < np.inf:
            raise InvalidArgument(f"dx = L/(nx-1) = {dx} has no finite "
                                  "nonzero square")
        # dx and the read-only trapezoid weights on the nodes, set once as
        # attributes and no fields: they leave equality and hash alone
        weights = np.full(self.nx, dx)
        weights[0] = weights[-1] = 0.5 * dx
        weights.flags.writeable = False
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "weights", weights)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx)


class State:
    """Grid samples of (v, p, v_t, p_t) at one instant, stacked as the rows
    of one float array y of shape (4, nx), or (B, 4, nx) for a batch of B
    members; v, p, vt and pt are views of its rows, so a write into one of
    them is a write into y.  failed maps a batch row (0 for one member) to
    the solve that failed for it on the step that made the state."""

    __slots__ = ("y", "t", "failed")

    def __init__(self, v, p, vt, pt, t: float = 0.0):
        self.y, self.t, self.failed = np.array([v, p, vt, pt], float), t, {}

    @classmethod
    def stacked(cls, y: np.ndarray, t: float = 0.0, failed=None) -> "State":
        """A state that holds the (..., 4, nx) array y itself, not a
        copy."""
        state = cls.__new__(cls)
        state.y, state.t, state.failed = y, t, failed or {}
        return state

    v, p, vt, pt = (property(lambda self, i=i: self.y[..., i, :])
                    for i in range(4))

    def copy(self) -> "State":
        return State.stacked(self.y.copy(), self.t, dict(self.failed))


def zero_state(grid: Grid1D) -> State:
    return State.stacked(np.zeros((4, grid.nx)))


@np.errstate(**QUIET)
def sine_modes(grid: Grid1D, coeffs) -> np.ndarray:
    """Sum of c_k * sin((k - 1/2) pi x / L), k = 1, 2, ...

    These modes vanish at x = 0 and have zero slope at x = L, so both
    boundary closures hold exactly for any coefficient list.
    """
    x = grid.nodes
    out = np.zeros(grid.nx)
    for k, c in enumerate(np.atleast_1d(coeffs), start=1):
        if c != 0.0:
            out += c * np.sin((k - 0.5) * np.pi * x / grid.L)
    return out


def state_from_modes(grid: Grid1D, v0, p0, v1, p1) -> State:
    return State(sine_modes(grid, v0), sine_modes(grid, p0),
                 sine_modes(grid, v1), sine_modes(grid, p1), 0.0)


def l2_norm_sq(field: np.ndarray, grid: Grid1D) -> float:
    return float(np.dot(grid.weights, field * field))


def lp_norm_pow(field: np.ndarray, q: float, grid: Grid1D) -> float:
    """Trapezoid quadrature of |field|^q; returns the q-th power of the norm."""
    if not q >= 1:
        raise InvalidArgument(f"q = {q} must be >= 1")
    return float(np.dot(grid.weights, row_power(q, q)(field)))


def row_power(q1: float, q2: float):
    """The map rows -> |rows|^q of a (..., 2, nx) array, q = q1 in row 0
    and q2 in row 1, or of any array if q1 = q2, its formula chosen once,
    into a fresh array.  q = 1 ... 4 take products, not pow: |x|^2 = x x
    bit for bit, |x|^3 = |x| (x x) and |x|^4 = (x x)^2."""
    if q1 != q2:
        first, second = row_power(q1, q1), row_power(q2, q2)
        return lambda rows: np.stack([first(rows[..., 0, :]),
                                      second(rows[..., 1, :])], axis=-2)
    if q1 == 1.0:
        return np.abs
    if q1 == 2.0:
        return lambda x: x * x
    if q1 == 3.0:
        return lambda x: np.abs(x) * (x * x)
    if q1 == 4.0:
        return lambda x: (sq := x * x) * sq
    return lambda x: np.abs(x) ** q1


def grad_sums(x: np.ndarray, gamma=None) -> np.ndarray:
    """Sums over the cells of the squared forward differences of each row
    of x, (..., k, nx), one np.vecdot (bit for bit one np.dot per row).
    Given gamma, x holds (v, p) pairs and the second sum is of
    gamma dv - dp: dx ||grad v||^2 and dx ||gamma grad v - grad p||^2."""
    d = x[..., 1:] - x[..., :-1]
    if gamma is not None:
        np.subtract(gamma * d[..., 0, :], d[..., 1, :], out=d[..., 1, :])
    return np.vecdot(d, d)


def grad_norm_sq(field: np.ndarray, grid: Grid1D) -> float:
    """Cell-midpoint quadrature of |field_x|^2."""
    return float(grad_sums(field) / grid.dx)


def quadratic_form(v: np.ndarray, p: np.ndarray, grid: Grid1D,
                   params: MaterialParams) -> float:
    """Stiffness form alpha1*||grad v||^2 + beta*||gamma grad v - grad p||^2."""
    a, b = grad_sums(np.array([v, p]), params.gamma).tolist()
    return (params.alpha1 * a + params.beta * b) / grid.dx


def second_difference(grid: Grid1D):
    """Bands (lower, main, upper) of the central second difference D2: the
    clamped node x = 0 has a zero row and column, so no row reads u[0], and
    a mirror ghost node at x = L (u_ghost = u[-2])."""
    nx = grid.nx
    dx2 = grid.dx ** 2
    main = np.full(nx, -2.0)
    main[0] = 0.0
    lower = np.ones(nx - 1)
    upper = np.ones(nx - 1)
    upper[0] = lower[0] = 0.0     # the clamped node, row and column
    lower[-1] = 2.0               # mirror ghost at x = L
    return lower / dx2, main / dx2, upper / dx2


def tridiagonal_solver(main, off):
    """rhs -> x with T x = rhs, T symmetric positive definite tridiagonal:
    one LDL^T factorization (LAPACK dpttrf) reused by every solve (dpttrs),
    which overwrites a float64 vector or Fortran-ordered (n, nrhs) rhs.
    A pivot <= 0 raises InvalidArgument."""
    d, e, info = lapack.dpttrf(main, off)
    if info != 0:
        raise InvalidArgument(f"tridiagonal matrix is not positive definite "
                              f"(dpttrf info = {info})")
    return lambda rhs: lapack.dpttrs(d, e, rhs, overwrite_b=1)[0]


def stiffness_solver(grid: Grid1D):
    """f -> u[1:] with K u[1:] = (W f)[1:] and u[0] = 0, the weak form of
    -u_xx = f.  K = -(W D2)[1:, 1:] with W = diag(weights) is the gradient
    stiffness on the free nodes, symmetric positive definite:
    u[1:] K u[1:] = grad_norm_sq(u)."""
    w = grid.weights
    _, main, upper = second_difference(grid)
    solve = tridiagonal_solver(-(w[1:] * main[1:]), -(w[1:-1] * upper[1:]))
    return lambda f: solve((w * f)[1:])

"""1D grid on [0, L], discrete operators, norms and quadratic forms.

Boundary closure: Dirichlet clamping at x = 0, and homogeneous Neumann for
both fields at x = L enforced through mirror ghost nodes.  The coupled
Neumann pair at x = L reduces algebraically to v_x(L) = p_x(L) = 0 because
its 2x2 coefficient matrix has determinant beta * alpha1 > 0.

Quadrature convention: volume (L^q) norms use the trapezoid rule on nodes;
gradient norms use the cell-midpoint rule on forward differences.  With
this pairing the discrete summation-by-parts identity
<coupled_laplacian(v,p), (v,p)> = -quadratic_form(v,p) holds to roundoff.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .params import MaterialParams


@dataclass(frozen=True)
class Grid1D:
    L: float
    nx: int

    def __post_init__(self):
        if not 0.0 < self.L < np.inf:
            raise ValueError(f"L = {self.L} must be finite and > 0")
        if self.nx < 3:
            raise ValueError(f"nx = {self.nx} must be >= 3")
        # the operators scale like 1/dx^2
        if not 0.0 < self.dx * self.dx < np.inf:
            raise ValueError(f"dx = L/(nx-1) = {self.dx} has no finite "
                             "nonzero square")

    @property
    def dx(self) -> float:
        return self.L / (self.nx - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.L, self.nx)

    @property
    def weights(self) -> np.ndarray:
        """Trapezoid quadrature weights on the nodes."""
        w = np.full(self.nx, self.dx)
        w[0] = w[-1] = 0.5 * self.dx
        return w


@dataclass
class State:
    """Grid samples of (v, p, v_t, p_t) at one instant."""

    v: np.ndarray
    p: np.ndarray
    vt: np.ndarray
    pt: np.ndarray
    t: float = 0.0

    def copy(self) -> "State":
        return State(self.v.copy(), self.p.copy(), self.vt.copy(),
                     self.pt.copy(), self.t)

    def scaled(self, c: float) -> "State":
        return State(c * self.v, c * self.p, c * self.vt, c * self.pt, self.t)


def zero_state(grid: Grid1D) -> State:
    z = np.zeros(grid.nx)
    return State(z.copy(), z.copy(), z.copy(), z.copy(), 0.0)


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


def grad(field: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Forward differences on the cells; exact on affine fields."""
    return np.diff(field) / grid.dx


def l2_norm_sq(field: np.ndarray, grid: Grid1D) -> float:
    return float(np.dot(grid.weights, field * field))


def lp_norm_pow(field: np.ndarray, q: float, grid: Grid1D) -> float:
    """Trapezoid quadrature of |field|^q; returns the q-th power of the norm."""
    if q < 1:
        raise ValueError(f"q = {q} must be >= 1")
    return float(np.dot(grid.weights, np.abs(field) ** q))


def grad_norm_sq(field: np.ndarray, grid: Grid1D) -> float:
    """Cell-midpoint quadrature of |field_x|^2."""
    g = grad(field, grid)
    return float(grid.dx * np.dot(g, g))


def quadratic_form(v: np.ndarray, p: np.ndarray, grid: Grid1D,
                   params: MaterialParams) -> float:
    """Stiffness form alpha1*||grad v||^2 + beta*||gamma grad v - grad p||^2."""
    gv = grad(v, grid)
    gp = grad(p, grid)
    mix = params.gamma * gv - gp
    return float(grid.dx * (params.alpha1 * np.dot(gv, gv)
                            + params.beta * np.dot(mix, mix)))


def second_difference(grid: Grid1D) -> sp.spmatrix:
    """Sparse central second difference D2 with the Dirichlet row at x = 0
    zeroed and a mirror ghost node at x = L (u_ghost = u[-2])."""
    nx = grid.nx
    dx2 = grid.dx ** 2
    main = np.full(nx, -2.0)
    main[0] = 0.0
    off_lo = np.ones(nx - 1)
    off_hi = np.ones(nx - 1)
    off_hi[0] = 0.0          # Dirichlet row stays zero
    off_lo[-1] = 2.0         # mirror ghost at x = L
    return sp.diags([off_lo, main, off_hi], [-1, 0, 1]) / dx2


def coupled_laplacian(v: np.ndarray, p: np.ndarray, grid: Grid1D,
                      params: MaterialParams):
    """Unscaled spatial operators (alpha D2 v - gamma beta D2 p,
    beta D2 p - gamma beta D2 v), with D2 = second_difference(grid)."""
    d2 = second_difference(grid)
    d2v = d2 @ v
    d2p = d2 @ p
    gb = params.gamma * params.beta
    return (params.alpha * d2v - gb * d2p,
            params.beta * d2p - gb * d2v)

"""Scalar energy functionals and per-step records.

E     quadratic energy, always >= 0
J     potential energy (stiffness minus source potentials), may be negative
Etot  total energy = kinetic + J, non-increasing along solutions
S     sign functional Q - ||v||_{n1+1}^{n1+1} - ||p||_{n2+1}^{n2+1};
      its sign separates the stable side (S > 0, or the zero state) from
      the unstable side (S < 0) of the potential well.
N     half the weighted squared displacement norm, N' its exact derivative
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (QUIET, Grid1D, State, l2_norm_sq, lp_norm_pow,
                   quadratic_form)
from .params import Exponents, MaterialParams

# Relative tolerance for calling a state "on the Nehari set".
BOUNDARY_TOL = 1e-9

CSV_FIELDS = ("t", "E", "J", "Etot", "damping_cum", "residual",
              "sign_fn", "Q", "vnorm_n1", "pnorm_n2")


@dataclass
class EnergyRecord:
    t: float
    E: float
    J: float
    Etot: float
    damping_cum: float
    residual: float
    sign_fn: float
    Q: float
    vnorm_n1: float
    pnorm_n2: float
    nprime: float        # N'(t); not an energy.csv column

    @property
    def well_side(self) -> str:
        """Tri-state membership: 'W1-side', 'W2-side' or 'boundary'.

        The Nehari set S = 0 is measure-zero but numerically reachable, so
        a relative band |S| <= tol * Q is reported as 'boundary'.  The zero
        state belongs to the stable side by definition.
        """
        if self.Q == 0.0:
            return "W1-side"
        if abs(self.sign_fn) <= BOUNDARY_TOL * self.Q:
            return "boundary"
        return "W1-side" if self.sign_fn > 0 else "W2-side"


@np.errstate(**QUIET)
def kinetic_energy(state: State, params: MaterialParams, grid: Grid1D) -> float:
    return 0.5 * (params.rho * l2_norm_sq(state.vt, grid)
                  + params.mu * l2_norm_sq(state.pt, grid))


@np.errstate(**QUIET)
def source_norms(state: State, exps: Exponents, grid: Grid1D):
    """(||v||_{n1+1}^{n1+1}, ||p||_{n2+1}^{n2+1})."""
    return (lp_norm_pow(state.v, exps.n1 + 1.0, grid),
            lp_norm_pow(state.p, exps.n2 + 1.0, grid))


def total_energy(state: State, params: MaterialParams, exps: Exponents,
                 grid: Grid1D) -> float:
    return make_record(state, params, exps, grid, 0.0, 0.0).Etot


def sign_functional(state: State, params: MaterialParams, exps: Exponents,
                    grid: Grid1D) -> float:
    return make_record(state, params, exps, grid, 0.0, 0.0).sign_fn


def well_side(state: State, params: MaterialParams, exps: Exponents,
              grid: Grid1D) -> str:
    """Side of the potential well a state lies on: EnergyRecord.well_side."""
    return make_record(state, params, exps, grid, 0.0, 0.0).well_side


@np.errstate(**QUIET)
def N_of(state: State, params: MaterialParams, grid: Grid1D) -> float:
    return 0.5 * (params.rho * l2_norm_sq(state.v, grid)
                  + params.mu * l2_norm_sq(state.p, grid))


@np.errstate(**QUIET)
def Nprime_of(state: State, params: MaterialParams, grid: Grid1D) -> float:
    w = grid.weights
    return float(params.rho * np.dot(w, state.v * state.vt)
                 + params.mu * np.dot(w, state.p * state.pt))


@np.errstate(**QUIET)
def damping_norms(state: State, exps: Exponents, grid: Grid1D):
    """(||v_t||_{m1+1}^{m1+1}, ||p_t||_{m2+1}^{m2+1})."""
    return (lp_norm_pow(state.vt, exps.m1 + 1.0, grid),
            lp_norm_pow(state.pt, exps.m2 + 1.0, grid))


@np.errstate(**QUIET)
def make_record(state: State, params: MaterialParams, exps: Exponents,
                grid: Grid1D, damping_cum: float, etot0: float) -> EnergyRecord:
    return _record(state, params, exps, grid, damping_cum, etot0,
                   quadratic_form(state.v, state.p, grid, params))


def _record(state: State, params: MaterialParams, exps: Exponents,
            grid: Grid1D, damping_cum: float, etot0, q: float) -> EnergyRecord:
    """make_record given the state's Q, with etot0 None for the record's own
    Etot; undecorated, for a caller in the QUIET error state."""
    vn, pn = source_norms.__wrapped__(state, exps, grid)
    kin = kinetic_energy.__wrapped__(state, params, grid)
    e = kin + 0.5 * q
    j = 0.5 * q - vn / (exps.n1 + 1.0) - pn / (exps.n2 + 1.0)
    etot = kin + j
    return EnergyRecord(
        t=state.t, E=e, J=j, Etot=etot, damping_cum=damping_cum,
        residual=abs(etot + damping_cum - (etot if etot0 is None else etot0)),
        sign_fn=q - vn - pn, Q=q, vnorm_n1=vn, pnorm_n2=pn,
        nprime=Nprime_of.__wrapped__(state, params, grid),
    )

import numpy as np
import pytest

import piezowave as pw


@pytest.fixture
def ref_params():
    """Reference constants: rho = mu = 1, alpha = 2, beta = 1, gamma = 1."""
    return pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)


@pytest.fixture
def ref_grid():
    return pw.Grid1D(1.0, 201)


@pytest.fixture
def coarse_grid():
    return pw.Grid1D(1.0, 101)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def step_calls(monkeypatch):
    """The batch size of each Stepper.step call made while the test runs."""
    calls, step = [], pw.Stepper.step

    def counted(self, state, exps):
        calls.append(len(state.y) if state.y.ndim == 3 else 1)
        return step(self, state, exps)
    monkeypatch.setattr(pw.Stepper, "step", counted)
    return calls

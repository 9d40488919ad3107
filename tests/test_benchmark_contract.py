"""The names and calls that the benchmark in `perfbench/` relies on.

`perfbench/tracing.py` wraps the attributes in its BINDINGS, keys
`well.embedding_constant` spans by their grid, q, restarts and seed, and,
like the host-speed sampler, wraps `Stepper.step`, so `simulate` must call
it once per step of a run that completes, and after a blow-up take at most
the rest of its block of steps.  `perfbench/run.py` probes a step as
`Stepper(grid, params, cfg).step(state, exps)`."""
import importlib
import inspect
from pathlib import Path

import pytest

import piezowave as pw
from piezowave import well

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_every_binding_exists_and_is_callable(tracing):
    missing = [(name, attr) for name, owner, attr in tracing.BINDINGS
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_embedding_constant_takes_the_traced_arguments():
    params = inspect.signature(well.embedding_constant).parameters
    assert {"grid", "q", "restarts", "seed"} <= set(params)


def test_stepper_takes_the_probed_arguments():
    assert list(inspect.signature(pw.Stepper).parameters) == [
        "grid", "params", "cfg"]
    assert list(inspect.signature(pw.Stepper.step).parameters) == [
        "self", "state", "exps"]


def test_simulate_steps_once_per_step(ref_params, step_calls):
    grid = pw.Grid1D(1.0, 41)
    state0 = pw.state_from_modes(grid, [0.05], [0.03], [0.0], [0.0])
    traj = pw.simulate(state0, ref_params, pw.validate_exponents(3, 3, 3, 3),
                       grid, pw.StepConfig(dt=1e-3), 0.025, record_every=10)
    assert traj.outcome == "completed"
    assert step_calls == [1] * 25


def test_a_blowup_steps_at_most_to_the_end_of_its_block(ref_params,
                                                        step_calls):
    grid = pw.Grid1D(1.0, 41)
    state0 = pw.state_from_modes(grid, [0.0], [0.0], [39.0], [0.0])
    cfg = pw.StepConfig(dt=1e-3, blowup_cutoff=1.0)
    traj = pw.simulate(state0, ref_params, pw.validate_exponents(1, 1, 2, 2),
                       grid, cfg, 0.1)
    assert (traj.outcome, round(traj.t_detect / cfg.dt)) == ("blowup", 17)
    assert len(step_calls) <= 17 + pw.integrator.BLOCK_STEPS - 1

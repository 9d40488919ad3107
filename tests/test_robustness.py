"""Bad input ends in a typed error (exit code 2) or a named outcome, never in
a traceback or a silent `completed`."""
import contextlib
import csv
import io
import json
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import piezowave as pw
from piezowave.cli import main, run_all
from piezowave.config import (RunConfig, build_run, load_run_config,
                              load_sweep_config)
from piezowave.errors import InvalidArgument
from piezowave.grid import MAX_NX
from piezowave.integrator import MAX_STEPS, step_count

RUN_CFG = """
[material]
rho = 1.0
alpha = {alpha}
beta = 1.0
gamma = {gamma}
mu = 1.0

[exponents]
m1 = {m}
m2 = {m}
n1 = 2.0
n2 = 2.0

[grid]
L = {L}
nx = {nx}

[integrator]
dt = {dt}
scheme = {scheme}
blowup_cutoff = {blowup_cutoff}

[initial]
v0 = {v0}
p0 = 0.03

[run]
t_end = {t_end}
record_every = {record_every}
seed = {seed}

[output]
outdir = {outdir}
"""


def _write(tmp_path, extra="", **values):
    values = {"v0": "0.05", "m": "1.0", "nx": "41", "dt": "1e-3",
              "t_end": "0.02", "record_every": "5", "L": "1.0",
              "alpha": "2.0", "gamma": "1.0", "seed": "0",
              "scheme": "semi-implicit", "blowup_cutoff": "1e6", **values}
    path = tmp_path / "run.cfg"
    path.write_text(RUN_CFG.format(outdir=tmp_path / "out", **values) + extra,
                    encoding="utf-8")
    return str(path)


def _sweep_rows(tmp_path):
    with open(tmp_path / "out" / "sweep.csv", encoding="utf-8",
              newline="") as fh:
        return list(csv.reader(fh))


ENERGY_CSV = "t,E,Etot\n0,2,1\n1,1,0.5\n2,0.5,0.25\n3,0.25,0.125\n"


@pytest.mark.parametrize("command, extra, values", [
    ("simulate", "", {"nx": "2"}),
    ("simulate", "", {"dt": "nan"}),
    ("simulate", "", {"t_end": "-1"}),
    ("simulate", "", {"record_every": "0"}),
    ("sweep", "\n[sweep]\nmax_parallel = abc\n"
              "[sweep.axes]\ninitial.v0 = 0.05\n", {}),
    ("sweep", "\n[sweep]\nmax_parallel = 0\n"
              "[sweep.axes]\ninitial.v0 = 0.05\n", {}),
    # fit: `extra` is the energy.csv text, None for a missing file
    ("fit --model poly --eta 0", ENERGY_CSV, {}),
    ("fit --model log --C 0.5", ENERGY_CSV, {}),
    ("fit --model exp", None, {}),
    ("fit --model exp", ENERGY_CSV.replace("0.125", "abc"), {}),
    ("fit --model exp", ENERGY_CSV.replace("Etot", "energy"), {}),
    ("fit --model exp", ENERGY_CSV + "4\n", {}),
    ("simulate", "", {"t_end": "inf"}),
    ("simulate", "", {"t_end": "1e308"}),
    ("simulate", "", {"t_end": "1e300"}),
    ("simulate", "", {"L": "nan"}),
    ("simulate", "", {"L": "inf"}),
    ("simulate", "", {"dt": "inf"}),
    ("simulate", "", {"seed": "-1"}),
    ("simulate", "", {"gamma": "1e200"}),
    ("simulate", "", {"L": "1e308"}),
    ("simulate", "", {"dt": "1e308"}),
    ("simulate", "", {"dt": "-1"}),
    ("simulate", "", {"alpha": "1e308"}),
    ("simulate", "\n[fit]\nmodel = log\nC = 0\n", {}),
    ("fit --model exp", "t,Etot\n" + "0,nan\n" * 4, {}),
    ("fit --model exp", ENERGY_CSV.replace("0.125", "inf"), {}),
    ("simulate", "", {"blowup_cutoff": "nan"}),
    ("simulate", "", {"blowup_cutoff": "0"}),
    ("simulate", "", {"blowup_cutoff": "-1"}),
], ids=["nx-too-small", "dt-nan", "t-end-negative", "record-every-zero",
        "max-parallel-not-int", "max-parallel-zero", "fit-eta-zero",
        "fit-C-below-1", "fit-missing-file", "fit-non-numeric",
        "fit-no-Etot-column", "fit-short-row", "t-end-inf", "t-end-1e308",
        "t-end-1e300", "L-nan", "L-inf", "dt-inf", "seed-negative",
        "gamma-1e200",
        "L-1e308", "dt-1e308", "dt-negative", "alpha-1e308",
        "fit-log-C-below-1", "fit-nan-series", "fit-inf-series",
        "cutoff-nan", "cutoff-zero", "cutoff-negative"])
def test_bad_input_exits_2_with_error_line(tmp_path, capsys, command, extra,
                                           values):
    name, *options = command.split()
    if name == "fit":
        path = tmp_path / "energy.csv"
        if extra is not None:
            path.write_text(extra, encoding="utf-8")
        argv = [name, str(path), *options]
    else:
        argv = [name, _write(tmp_path, extra, **values)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_step_count_is_capped():
    """t_end = 1e300 at dt = 1e-3 is a finite but endless run (1e303
    steps): validation must refuse it instead of starting it."""
    assert step_count(1.0, 1e-3) == 1000
    assert step_count(MAX_STEPS * 0.5, 0.5) == MAX_STEPS
    with pytest.raises(ValueError):
        step_count(1e300, 1e-3)
    with pytest.raises(InvalidArgument):
        build_run(replace(RunConfig(), t_end=1e300))


# (state0, params, exps, grid, cfg, t_end) of a short run with m = 1
_LINEAR_RUN = (pw.state_from_modes(pw.Grid1D(1.0, 11), [0.1], [0.0], [0.0],
                                   [0.0]),
               pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0),
               pw.validate_exponents(1, 1, 2, 2), pw.Grid1D(1.0, 11),
               pw.StepConfig(dt=1e-3), 0.01)
# (times, values) of a decaying energy series
_SERIES = ([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.25, 0.125])


def _load_sweep(extra):
    """load_sweep_config on the _write run config plus extra sections."""
    with tempfile.TemporaryDirectory() as tmp:
        return load_sweep_config(_write(Path(tmp), extra))


@pytest.mark.parametrize("call", [
    lambda: pw.Grid1D(1.0, 2),
    lambda: pw.StepConfig(dt=0.0),
    lambda: step_count(1e300, 1e-3),
    lambda: pw.embedding_constant(pw.Grid1D(1.0, 11), 8.0),
    lambda: pw.grid.tridiagonal_solver(np.zeros(3), np.zeros(2)),
    lambda: pw.Stepper(pw.Grid1D(1.0, 201),
                       pw.make_params(1.0, 1e308, 1.0, 1.0, 1.0),
                       pw.StepConfig(dt=1e-3)),
    lambda: pw.simulate(*_LINEAR_RUN, record_every=0),
    lambda: pw.grid.lp_norm_pow(np.ones(11), 0.5, pw.Grid1D(1.0, 11)),
    lambda: pw.s_star_solve(0.0, 2.0, 2.0),
    lambda: pw.theorem210_threshold(*_LINEAR_RUN[:4], 0.6,
                                    convention="unknown"),
    lambda: pw.StepConfig(dt=1e-3, blowup_cutoff=float("nan")),
    lambda: pw.Grid1D(1.0, MAX_NX + 1),
    lambda: pw.fit_exponential([0.0, 1.0, 2.0], [1.0, 0.5, 0.25]),
    lambda: pw.fit_polynomial(*_SERIES, 0.0),
    lambda: pw.fit_logarithmic(*_SERIES, float("nan"), 2.0),
    lambda: pw.fit_logarithmic(*_SERIES, 1.0, 0.5),
    lambda: pw.simulate(*_LINEAR_RUN, record_every=float("nan")),
    lambda: pw.simulate(*_LINEAR_RUN, record_every=2.5),
    lambda: pw.Grid1D(1.0, 41.5),
    lambda: pw.embedding_constant(pw.Grid1D(1.0, 11), 3.0, restarts=0),
    lambda: pw.embedding_constant(pw.Grid1D(1.0, 11), 3.0, seed=-1),
    lambda: pw.well_report(*_LINEAR_RUN[1:4], seed=-1),
    lambda: pw.grid.lp_norm_pow(np.ones(11), float("nan"),
                                pw.Grid1D(1.0, 11)),
    lambda: pw.embedding_constant(pw.Grid1D(1.0, 11), 3.0, restarts=2.5),
    lambda: pw.embedding_constant(pw.Grid1D(1.0, 11), 3.0, seed=1.5),
    lambda: build_run(replace(RunConfig(), t_end=1e300)),
    lambda: build_run(replace(RunConfig(), seed=1.5)),
    lambda: build_run(replace(RunConfig(), fit_C=0.5)),
    lambda: build_run(replace(RunConfig(), fit_C=float("inf"))),
    lambda: build_run(replace(RunConfig(), fit_model="bogus")),
    lambda: _load_sweep("\n[sweep]\nmax_parallel = 0\n"
                        "[sweep.axes]\ninitial.v0 = 0.05\n"),
], ids=["grid", "step-config", "step-count", "embedding-q",
        "zero-pivot", "midpoint-overflow", "record-every", "lp-q",
        "s-star", "bound-convention",
        "step-config-cutoff", "grid-max-nx", "fit-series-shape",
        "fit-poly-eta", "fit-log-eta", "fit-log-C", "record-every-nan",
        "record-every-fraction", "grid-nx-fraction", "embedding-restarts",
        "embedding-seed", "well-report-seed", "lp-q-nan",
        "embedding-restarts-fraction", "embedding-seed-fraction",
        "build-run-t-end", "build-run-seed-fraction", "build-run-fit-C",
        "build-run-fit-C-inf", "build-run-fit-model", "sweep-max-parallel"])
def test_invalid_argument_is_typed(call):
    """Each site raises a PiezowaveError that is still the ValueError it
    was before (InvalidArgument)."""
    with pytest.raises(pw.PiezowaveError) as exc:
        call()
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("shape", [(4, 41), (2, 4, 41), (3, 81),
                                   (1, 2, 4, 81)])
@pytest.mark.parametrize("run", ["simulate", "step"])
def test_state_must_fit_the_grid(run, shape):
    """A state whose shape is not (4, nx) or (B, 4, nx) on the grid is an
    InvalidArgument, not numpy's bare ValueError from deep inside a step
    (or, for a stack of batches, a run of only its first member)."""
    grid = pw.Grid1D(1.0, 81)
    state = pw.grid.State.stacked(np.full(shape, 0.1))
    _, params, exps, _, cfg, t_end = _LINEAR_RUN
    with pytest.raises(pw.errors.InvalidArgument):
        if run == "simulate":
            pw.simulate(state, params, exps, grid, cfg, t_end)
        else:
            pw.Stepper(grid, params, cfg).step(state, exps)


@pytest.mark.parametrize("run", ["simulate", "step"])
@pytest.mark.parametrize("scheme", pw.integrator.SCHEMES)
def test_empty_batch_is_invalid(scheme, run):
    """A batch of no members, (0, 4, nx), is an InvalidArgument under
    either scheme, not numpy's bare ValueError from the midpoint iteration
    nor a semi-implicit run of every step that returns []."""
    grid = pw.Grid1D(1.0, 81)
    state = pw.grid.State.stacked(np.zeros((0, 4, 81)))
    _, params, exps, _, _, t_end = _LINEAR_RUN
    cfg = pw.StepConfig(dt=1e-3, scheme=scheme)
    with pytest.raises(pw.errors.InvalidArgument, match=r"\(0, 4, 81\) is "
                       r"not \(4, nx\) or \(B > 0, 4, nx\) with nx = 81"):
        if run == "simulate":
            pw.simulate(state, params, exps, grid, cfg, t_end)
        else:
            pw.Stepper(grid, params, cfg).step(state, exps)


@pytest.mark.parametrize("exponents", [(3, 3, 3, 3), (2, 2, 3, 3),
                                       (2.5, 4, 3, 3), (1, 1, 2, 2)],
                         ids=["m3", "m2", "newton-mixed", "m1"])
def test_a_direct_step_overflows_quietly(exponents):
    """Stepper.step called directly, not by `simulate`, holds numpy's error
    state itself: a state of 1e308 entries, one member or a batch,
    overflows to inf and NaN without a RuntimeWarning."""
    grid = pw.Grid1D(1.0, 41)
    _, params, _, _, cfg, _ = _LINEAR_RUN
    stepper, exps = pw.Stepper(grid, params, cfg), pw.validate_exponents(
        *exponents)
    y = np.full((4, grid.nx), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state in (y, np.stack([y, -y])):
            new = stepper.step(pw.grid.State.stacked(state), exps)
            assert not np.isfinite(new.y).all()


def test_newton_bisection_beside_an_undamped_row_is_quiet():
    """rho = 1e300 at dt = 1e-30 makes the v row's damping coefficient
    underflow to 0.  A p_t of 1e60 at m = 2.5 sends the p row to the
    bisection fallback, whose bracket (|r|/a)^(1/m) is taken on both rows:
    a direct step and `simulate` divide by the zero coefficient without a
    RuntimeWarning, the fallback meets its tolerance, and v_t is kept."""
    grid = pw.Grid1D(1.0, 41)
    params = pw.make_params(1e300, 2.0, 1.0, 1.0, 1.0)
    exps, cfg = pw.validate_exponents(2.5, 2.5, 3, 3), pw.StepConfig(dt=1e-30)
    state = pw.state_from_modes(grid, [0.0], [0.0], [0.5], [1e60])
    stepper = pw.Stepper(grid, params, cfg)
    assert stepper._damp_coef[0, 0] == 0.0 < stepper._damp_coef[1, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new = stepper.step(state, exps)
        traj = pw.simulate(state, params, exps, grid, cfg, 1e-30)
    assert new.failed == {} and np.isfinite(new.y).all()
    assert np.allclose(new.y[2], state.y[2], rtol=1e-12, atol=0.0)
    assert traj.final_state.y.tobytes() == new.y.tobytes()


@pytest.mark.parametrize("values, code", [({"alpha": "1e308"}, 2),
                                          ({"v0": "1e308"}, 0)],
                         ids=["alpha-1e308", "v0-1e308"])
def test_overflowing_input_leaves_stderr_clean(tmp_path, capsys, values,
                                               code):
    """Overflow ends in one `error:` line or in a blowup outcome, with no
    numpy or scipy RuntimeWarning on the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", _write(tmp_path, **values)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
        summary = json.loads((tmp_path / "out" / "summary.json")
                             .read_text(encoding="utf-8"))
        assert summary["outcome"] == "blowup"


@pytest.mark.parametrize("m", [2.0, 3.0])
@pytest.mark.parametrize("modes", [([1e308], [0.0], [0.0], [0.0]),
                                   ([0.0], [0.0], [1e305], [0.0])],
                         ids=["v0-1e308", "v1-1e305"])
def test_library_overflow_is_a_blowup_without_warnings(m, modes):
    """`simulate` on overflowing data ends as `blowup` with no numpy
    RuntimeWarning on the way, as the CLI does."""
    params = pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)
    grid = pw.Grid1D(1.0, 201)
    exps = pw.validate_exponents(m, m, 3.0, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = pw.simulate(pw.state_from_modes(grid, *modes), params, exps,
                           grid, pw.StepConfig(dt=1e-3), 0.1)
    assert traj.outcome == "blowup"


def test_numpy_integers_are_valid_counts():
    """nx, record_every, seed and restarts may be numpy integers, as the
    CLI's int is."""
    grid = pw.Grid1D(1.0, np.int64(11))
    traj = pw.simulate(*_LINEAR_RUN[:3], grid, *_LINEAR_RUN[4:],
                       record_every=np.int64(5))
    assert [r.t for r in traj.records] == pytest.approx([0.0, 0.005, 0.01])
    assert (pw.embedding_constant(grid, 3.0, restarts=np.int64(2),
                                  seed=np.int64(1))
            == pw.embedding_constant(grid, 3.0, restarts=2, seed=1))
    run = build_run(replace(RunConfig(), nx=np.int64(21), seed=np.int64(1),
                            record_every=np.int64(5)))
    assert run[2] == pw.Grid1D(1.0, 21)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize("call", [
    lambda b: pw.Grid1D(1.0, b),
    lambda b: pw.simulate(*_LINEAR_RUN, record_every=b),
    lambda b: pw.embedding_constant(pw.Grid1D(1.0, 11), 3.0, restarts=b),
    lambda b: pw.embedding_constant(pw.Grid1D(1.0, 11), 3.0, seed=b),
    lambda b: pw.well_report(*_LINEAR_RUN[1:4], seed=b),
    lambda b: build_run(replace(RunConfig(), seed=b)),
    lambda b: build_run(replace(RunConfig(), record_every=b)),
], ids=["grid-nx", "record-every", "embedding-restarts", "embedding-seed",
        "well-report-seed", "build-run-seed", "build-run-record-every"])
def test_bool_is_no_count(call, flag):
    """A bool is an Integral, but no count: every check_count argument
    rejects True and False, as it rejects numpy's bool_, where True ran as
    1 and False as a seed of 0."""
    with pytest.raises(InvalidArgument, match=f"= {flag} must be an integer"):
        call(flag)


def test_fractional_seed_fails_its_run_before_stepping(step_calls):
    """A library config with seed = 1.5 is that run's InvalidArgument from
    run_all, yielded before any member steps."""
    cfg = replace(RunConfig(), nx=21, t_end=0.01)
    results = run_all([replace(cfg, seed=1.5), cfg])
    i, error = next(results)
    assert (i, step_calls) == (0, [])
    assert isinstance(error, InvalidArgument)
    assert str(error) == "seed = 1.5 must be an integer >= 0"
    [(i, report)] = results
    assert (i, report["summary"]["outcome"]) == (1, "completed")


# (axis, valid value, out-of-range value, what the error names): every
# range is checked by build_run, so each bad value fails only its member
OUT_OF_RANGE = [("grid.nx", "41", "2", "nx = 2"),
                ("run.t_end", "0.02", "-1", "-1"),
                ("run.record_every", "5", "0", "record_every = 0"),
                ("fit.C", "2", "0.5", "C = 0.5"),
                ("fit.C", "2", "inf", "C = inf"),
                ("fit.model", "exp", "bogus", "'bogus'")]


def test_invalid_sweep_member_is_an_error_row(tmp_path):
    for axis, good_value, bad_value, named in OUT_OF_RANGE:
        work = tmp_path / f"{axis}-{bad_value}"
        work.mkdir()
        cfg = _write(work, extra=f"\n[sweep.axes]\n{axis} = {good_value}, "
                                 f"{bad_value}\n")
        assert main(["sweep", cfg]) == 0, axis
        header, good, bad = _sweep_rows(work)
        assert header[:3] == [axis, "classification", "outcome"]
        assert good[0] == good_value and good[2] == "completed", axis
        assert bad[0] == bad_value and bad[2].startswith("error: "), axis
        assert named in bad[2], (axis, bad[2])


@pytest.mark.parametrize("axis, value, named",
                         [(axis, bad, named)
                          for axis, _, bad, named in OUT_OF_RANGE],
                         # an axis's second bad value is named by it too
                         ids=[f"{axis}-{bad}" if axis in [
                             a for a, *_ in OUT_OF_RANGE[:i]] else axis
                             for i, (axis, _, bad, _) in
                             enumerate(OUT_OF_RANGE)])
def test_out_of_range_value_fails_its_run(tmp_path, capsys, axis, value,
                                          named):
    """The same value in a run config ends `simulate` with one `error:`
    line, before anything is written."""
    section, key = axis.split(".")
    if section == "fit":
        cfg = _write(tmp_path, extra=f"\n[fit]\n{key} = {value}\n")
    else:
        cfg = _write(tmp_path, **{key: value})
    assert main(["simulate", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not (tmp_path / "out").exists()


def test_unparsable_axis_value_exits_2(tmp_path, capsys):
    """An axis value that is not text of its option's type stops the
    sweep when the file loads."""
    cfg = _write(tmp_path,
                 extra="\n[sweep.axes]\nrun.record_every = 5, abc\n")
    assert main(["sweep", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [run] record_every = 'abc': ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "classify", "bounds"])
def test_nx_above_bound_is_an_error_line(tmp_path, capsys, command):
    """An nx past MAX_NX is refused before anything is allocated for it,
    not left to end in a MemoryError traceback."""
    assert main([command, _write(tmp_path, nx=str(10**12))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"must be <= {MAX_NX}" in err


def test_nx_above_bound_is_an_error_row(tmp_path):
    cfg = _write(tmp_path, extra=f"\n[sweep.axes]\ngrid.nx = 21, {10**12}\n")
    assert main(["sweep", cfg]) == 0
    _, good, bad = _sweep_rows(tmp_path)
    assert good[2] == "completed"
    assert bad[0] == str(10**12) and bad[2].startswith("error: nx = ")


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_misspelled_section_is_an_unknown_option(tmp_path, capsys, command):
    """Only [sweep] and [sweep.axes] are left to the sweep loader: a
    misspelled [sweeps] is checked like any other section, for a run and
    for a sweep, instead of being ignored."""
    cfg = _write(tmp_path, extra="\n[sweeps]\ncap = 1\n"
                                 "[sweep.axes]\ninitial.v0 = 0.05; 0.1\n")
    assert main([command, cfg]) == 2
    assert capsys.readouterr().err == "error: unknown option [sweeps] cap\n"
    assert not (tmp_path / "out").exists()


def _write_m2_n3(work, extra="", **values):
    """_write's config with m = 2 and n = 3 and gamma = 0: at alpha = 1e-200,
    M = 1e200 and C_hat's power M^((n + 1)/2) = 1e400 is past the float
    range."""
    cfg = Path(_write(work, extra, gamma="0.0", m="2.0", **values))
    cfg.write_text(cfg.read_text(encoding="utf-8").replace(
        "n1 = 2.0", "n1 = 3.0").replace("n2 = 2.0", "n2 = 3.0"),
        encoding="utf-8")
    return str(cfg)


@pytest.mark.parametrize("command", ["classify", "simulate"])
def test_c_hat_overflow_is_an_error_line(tmp_path, capsys, command):
    """C_hat past the float range is one `error:` line and exit 2, not an
    OverflowError traceback, and nothing is written."""
    assert main([command, _write_m2_n3(tmp_path, alpha="1e-200")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "C_hat = inf" in err
    assert not (tmp_path / "out").exists()


def test_c_hat_overflow_is_an_error_row(tmp_path):
    """In a sweep the alpha = 1e-200 member is an `error:` row of its own,
    and the alpha = 2 row is what it reads alone."""
    rows = {}
    for axis in ("2.0", "2.0, 1e-200"):
        work = tmp_path / str(len(rows))
        work.mkdir()
        cfg = _write_m2_n3(
            work, extra=f"\n[sweep.axes]\nmaterial.alpha = {axis}\n")
        assert main(["sweep", cfg]) == 0
        rows[axis] = _sweep_rows(work)[1:]
    [alone], [good, bad] = rows.values()
    assert good == alone and good[2] == "completed"
    assert bad[0] == "9.9999999999999998e-201"
    assert bad[2].startswith("error: ") and "C_hat = inf" in bad[2]


def test_list_axis_cells_parse_back_bit_exact(tmp_path):
    cfg = _write(tmp_path, extra="\n[sweep.axes]\n"
                                 "initial.v0 = 0.05; 0.1, -0.2\n")
    assert main(["sweep", cfg]) == 0
    cells = [row[0] for row in _sweep_rows(tmp_path)[1:]]
    parsed = [tuple(float(tok) for tok in cell.split(",")) for cell in cells]
    assert parsed == [(0.05,), (0.1, -0.2)]


def test_nan_initial_data_ends_as_blowup(tmp_path):
    cfg = _write(tmp_path, v0="nan")
    assert main(["simulate", cfg]) == 0
    summary = (tmp_path / "out" / "summary.json").read_text(encoding="utf-8")
    assert '"outcome": "blowup"' in summary
    assert '"trigger": "grad_v_sq"' in summary
    # non-finite values print as null, so every file is valid JSON
    for name in ("summary.json", "well.json", "blowup.json"):
        with open(tmp_path / "out" / name, encoding="utf-8") as fh:
            json.load(fh)
    assert json.loads(summary)["E0"] is None


def test_nan_initial_data_ends_as_blowup_under_implicit_midpoint(tmp_path):
    """The source iteration must not turn a NaN state into NoConvergence:
    a step of it comes out NaN.  The run itself ends at t = 0, before its
    first step."""
    cfg = _write(tmp_path, v0="nan", scheme="implicit-midpoint")
    assert main(["simulate", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json")
                         .read_text(encoding="utf-8"))
    assert summary["outcome"] == "blowup"
    assert summary["t_detect"] == 0.0
    params, exps, grid, step, state0 = build_run(load_run_config(cfg))
    assert np.isnan(pw.Stepper(grid, params, step).step(state0, exps).y).all()


def test_nan_initial_data_is_not_negative_energy(tmp_path):
    """A NaN G(0) = -Etot(0) is not > 0, so blowup.json names no criterion
    and leaves the monotonicity flags of a negative-energy run null."""
    assert main(["simulate", _write(tmp_path, v0="nan")]) == 0
    report = json.loads((tmp_path / "out" / "blowup.json")
                        .read_text(encoding="utf-8"))
    assert [report[key] for key in ("criterion", "G_monotone_ok",
                                    "Y_positive_increasing")] == [None] * 3


@pytest.mark.parametrize("axes, message", [
    ("", "sweep config needs a [sweep.axes] section"),
    ("v0 = 0.05", "axis 'v0' must be 'section.option'"),
    ("initial.v9 = 0.05", "unknown axis [initial] v9"),
    ("initial.v0 = ;", "axis 'initial.v0' has no values"),
], ids=["no-section", "no-dot", "unknown", "no-values"])
def test_sweep_axis_errors_exit_2(tmp_path, capsys, axes, message):
    extra = "\n[sweep.axes]\n" + axes + "\n" if axes else ""
    assert main(["sweep", _write(tmp_path, extra=extra)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_bounds_without_linear_damping_is_inapplicable(tmp_path, capsys):
    assert main(["bounds", _write(tmp_path, m="2.0")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("poincare_c: ")
    assert lines[1:] == [
        f"[{c}] bound inapplicable: threshold and bound require m1 = m2 = 1"
        for c in ("poincare-consistent", "paper-literal")]


# A table of valid values per option; any option may instead take one of
# BAD_VALUES.  The grid and the run stay small (nx <= 41, t_end <= 0.05).
VALID = {
    ("material", "rho"): ("1.0", "2.0"),
    ("material", "alpha"): ("2.0", "3.0"),
    ("material", "beta"): ("1.0", "0.5"),
    ("material", "gamma"): ("1.0", "-0.5"),
    ("material", "mu"): ("1.0", "2.0"),
    ("exponents", "m1"): ("1.0", "2.0"),
    ("exponents", "m2"): ("1.0", "2.0"),
    ("exponents", "n1"): ("2.0", "3.0"),
    ("exponents", "n2"): ("2.0", "3.0"),
    ("grid", "L"): ("1.0", "2.0"),
    ("grid", "nx"): ("21", "41"),
    ("integrator", "dt"): ("1e-3", "2.5e-3"),
    ("integrator", "scheme"): ("semi-implicit", "implicit-midpoint"),
    ("integrator", "blowup_cutoff"): ("1e6", "10"),
    ("integrator", "damping"): ("true", "false"),
    ("integrator", "sources"): ("true", "false"),
    ("initial", "v0"): ("0.05", "0.05, 0.5"),
    ("initial", "p0"): ("0.03", "2.0"),
    ("initial", "v1"): ("0.0", "1.0"),
    ("initial", "p1"): ("0.0", "-1.0"),
    ("run", "t_end"): ("0.02", "0.05"),
    ("run", "record_every"): ("5", "1"),
    ("run", "seed"): ("0", "3"),
    ("fit", "model"): ("exp", "log"),
    ("fit", "C"): ("2.0", "1.0"),
}
BAD_VALUES = ("nan", "inf", "-1", "0", "1e308", "abc", "")
KEYS = list(VALID)


def _fuzz_text(values: dict, outdir: Path, axis=None) -> str:
    sections = {}
    for (section, key), value in values.items():
        sections.setdefault(section, []).append(f"{key} = {value}")
    sections["output"] = [f"outdir = {outdir}"]
    if axis is not None:
        sections["sweep.axes"] = [axis]
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n\n"
                   for name, lines in sections.items())


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_cli_fuzz_exits_0_or_2(data):
    """simulate and a one-axis sweep on fuzzed configs end in exit code 0
    or 2, never in a traceback.  The sweep's axis runs a valid value of its
    option and then a fuzzed one, so a valid base gives one good member."""
    values = {key: data.draw(st.sampled_from(VALID[key] + BAD_VALUES),
                             label=f"{key[0]}.{key[1]}")
              for key in data.draw(st.sets(st.sampled_from(KEYS),
                                           max_size=4), label="keys")}
    values = {key: VALID[key][0] for key in KEYS} | values
    section, key = axis = data.draw(st.sampled_from(KEYS), label="axis")
    sep = ";" if section == "initial" else ","
    bad = data.draw(st.sampled_from(BAD_VALUES), label="axis value")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text(_fuzz_text(values, Path(tmp) / "out"),
                       encoding="utf-8")
        assert _exit_code(["simulate", str(cfg)]) in (0, 2)
        cfg.write_text(_fuzz_text(
            values, Path(tmp) / "out",
            f"{section}.{key} = {VALID[axis][0]}{sep} {bad}"),
            encoding="utf-8")
        assert _exit_code(["sweep", str(cfg)]) in (0, 2)


# Valid values of each library argument; any of them may instead take one
# of LIB_EXTREMES.  The run stays small (nx <= 41, t_end <= 0.05).
LIB_VALID = {
    "rho": (1.0, 2.3), "alpha": (2.0, 5.0), "beta": (1.0, 0.7),
    "gamma": (1.0, -1.9), "mu": (1.0, 0.4),
    "m1": (1.0, 2.0, 3.0), "m2": (1.0, 2.0, 3.0),
    "n1": (2.0, 3.0), "n2": (2.0, 3.0),
    "L": (1.0, 2.0), "nx": (21, 41),
    "dt": (1e-3, 2.5e-3), "blowup_cutoff": (1e6, 10.0),
    "v0": (0.05, 0.5), "p0": (0.03, 2.0), "v1": (0.0, 1.0), "p1": (0.0, -1.0),
}
LIB_EXTREMES = (float("nan"), float("inf"), 1e200, -1e200, 1e308, 0.0, -1.0)


def _typed(call):
    """call()'s value, or None when it raises a PiezowaveError."""
    try:
        return call()
    except pw.PiezowaveError:
        return None


@pytest.mark.parametrize("call", [
    lambda: pw.state_from_modes(pw.Grid1D(1.0, 11), [np.inf], [0.0], [0.0],
                                [0.0]),
    lambda: pw.fit_exponential([0.0, 1.0, 2.0, 3.0],
                               [1.0, 1.0, 1e-300, 1e300]),
    lambda: pw.fit_polynomial(*_SERIES, 1e200),
    lambda: pw.fit_logarithmic(*_SERIES, 1e200, 2.0),
], ids=["inf-amplitude", "exp-envelope-overflow", "poly-eta-1e200",
        "log-eta-1e200"])
def test_extreme_library_input_raises_no_warning(call):
    """Found by the library fuzz: an infinite mode amplitude (inf * sin(0))
    and an energy series whose envelope or E^(-eta) overflows, as with
    m1 = 1e200, give NaN/inf values quietly, as they do in the CLI."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_library_fuzz_returns_or_raises_typed(data):
    """The library entry points, on fuzzed parameters, exponents, grid,
    step settings and mode amplitudes, return or raise a PiezowaveError,
    with numpy warnings raised as errors."""
    fuzzed = data.draw(st.sets(st.sampled_from(list(LIB_VALID)), max_size=4),
                       label="fuzzed")
    x = {key: data.draw(st.sampled_from(LIB_VALID[key] + LIB_EXTREMES),
                        label=key) if key in fuzzed else LIB_VALID[key][0]
         for key in LIB_VALID}
    scheme = data.draw(st.sampled_from(pw.integrator.SCHEMES), label="scheme")
    damping, sources = data.draw(st.booleans()), data.draw(st.booleans())
    t_end = data.draw(st.sampled_from((0.0, 0.02, 0.05)), label="t_end")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        made = _typed(lambda: (
            pw.make_params(x["rho"], x["alpha"], x["beta"], x["gamma"],
                           x["mu"]),
            pw.validate_exponents(x["m1"], x["m2"], x["n1"], x["n2"]),
            pw.Grid1D(x["L"], x["nx"]),
            pw.StepConfig(dt=x["dt"], scheme=scheme,
                          blowup_cutoff=x["blowup_cutoff"],
                          damping_on=damping, sources_on=sources)))
        if made is None:
            return
        params, exps, grid, cfg = made
        state0 = pw.state_from_modes(grid, [x["v0"]], [x["p0"]], [x["v1"]],
                                     [x["p1"]])
        report = _typed(lambda: pw.well_report(params, exps, grid))
        if report is not None:
            _typed(lambda: pw.classify_initial(state0, report, params, exps,
                                               grid))
        traj = _typed(lambda: pw.simulate(state0, params, exps, grid, cfg,
                                          t_end, record_every=5))
        if traj is None:
            return
        _typed(lambda: pw.blowup_report(traj, state0, params, exps, grid))
        times = [r.t for r in traj.records]
        values = [r.Etot for r in traj.records]
        eta = pw.eta_from_exponents(exps) or 1.0
        _typed(lambda: pw.fit_exponential(times, values))
        _typed(lambda: pw.fit_polynomial(times, values, eta))
        _typed(lambda: pw.fit_logarithmic(times, values, eta, 2.0))

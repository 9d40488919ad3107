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
from piezowave.cli import main
from piezowave.config import RunConfig, build_run
from piezowave.errors import ConfigParse
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
    with pytest.raises(ConfigParse):
        build_run(replace(RunConfig(), t_end=1e300))


# (state0, params, exps, grid, cfg, t_end) of a short run with m = 1
_LINEAR_RUN = (pw.state_from_modes(pw.Grid1D(1.0, 11), [0.1], [0.0], [0.0],
                                   [0.0]),
               pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0),
               pw.validate_exponents(1, 1, 2, 2), pw.Grid1D(1.0, 11),
               pw.StepConfig(dt=1e-3), 0.01)
# (times, values) of a decaying energy series
_SERIES = ([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.25, 0.125])


@pytest.mark.parametrize("call", [
    lambda: pw.Grid1D(1.0, 2),
    lambda: pw.StepConfig(dt=0.0),
    lambda: step_count(1e300, 1e-3),
    lambda: pw.embedding_constant(pw.Grid1D(1.0, 11), 8.0),
    lambda: pw.grid.tridiagonal_solver(np.zeros(2), np.zeros(3),
                                       np.zeros(2)),
    lambda: pw.Stepper(pw.Grid1D(1.0, 201),
                       pw.make_params(1.0, 1e308, 1.0, 1.0, 1.0),
                       pw.StepConfig(dt=1e-3)),
    lambda: pw.simulate(*_LINEAR_RUN, record_every=0),
    lambda: pw.grid.lp_norm_pow(np.ones(11), 0.5, pw.Grid1D(1.0, 11)),
    lambda: pw.s_star_solve(0.0, 2.0, 2.0),
    lambda: pw.theorem210_threshold(*_LINEAR_RUN[:4], 0.6,
                                    convention="unknown"),
    lambda: pw.validate_exponents(1, 1, 2, 2, mode="unknown"),
    lambda: pw.StepConfig(dt=1e-3, blowup_cutoff=float("nan")),
    lambda: pw.Grid1D(1.0, MAX_NX + 1),
    lambda: pw.fit_exponential([0.0, 1.0, 2.0], [1.0, 0.5, 0.25]),
    lambda: pw.fit_polynomial(*_SERIES, 0.0),
    lambda: pw.fit_logarithmic(*_SERIES, float("nan"), 2.0),
    lambda: pw.fit_logarithmic(*_SERIES, 1.0, 0.5),
], ids=["grid", "step-config", "step-count", "embedding-q",
        "zero-pivot", "midpoint-overflow", "record-every", "lp-q",
        "s-star", "bound-convention", "exponent-mode",
        "step-config-cutoff", "grid-max-nx", "fit-series-shape",
        "fit-poly-eta", "fit-log-eta", "fit-log-C"])
def test_invalid_argument_is_typed(call):
    """Each site raises a PiezowaveError that is still the ValueError it
    was before (InvalidArgument)."""
    with pytest.raises(pw.PiezowaveError) as exc:
        call()
    assert isinstance(exc.value, ValueError)


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


def test_invalid_sweep_member_is_an_error_row(tmp_path):
    cfg = _write(tmp_path, extra="\n[sweep.axes]\ngrid.nx = 41, 2\n")
    assert main(["sweep", cfg]) == 0
    header, good, bad = _sweep_rows(tmp_path)
    assert header[:3] == ["grid.nx", "classification", "outcome"]
    assert good[0] == "41" and good[2] == "completed"
    assert bad[0] == "2" and bad[2].startswith("error: ")
    assert "nx = 2" in bad[2]


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
    """The source iteration must not turn a NaN state into NoConvergence."""
    cfg = _write(tmp_path, v0="nan", scheme="implicit-midpoint")
    assert main(["simulate", cfg]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json")
                         .read_text(encoding="utf-8"))
    assert summary["outcome"] == "blowup"
    assert summary["t_detect"] == 1e-3


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
        _typed(lambda: pw.blowup_report(traj, state0, params, exps, grid,
                                        pw.poincare_constant(grid)))
        times = [r.t for r in traj.records]
        values = [r.Etot for r in traj.records]
        eta = pw.eta_from_exponents(exps) or 1.0
        _typed(lambda: pw.fit_exponential(times, values))
        _typed(lambda: pw.fit_polynomial(times, values, eta))
        _typed(lambda: pw.fit_logarithmic(times, values, eta, 2.0))

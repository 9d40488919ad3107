import json
import os

import numpy as np
import pytest

import piezowave as pw
from piezowave import cli, config, integrator
from piezowave.cli import main
from piezowave.config import (expand_sweep, load_run_config,
                              load_sweep_config)
from piezowave.errors import ConfigParse, InvalidArgument

BASE_CFG = """
[material]
rho = 1.0
alpha = 2.0
beta = 1.0
gamma = 1.0
mu = 1.0

[exponents]
m1 = 1.0
m2 = 1.0
n1 = 2.0
n2 = 2.0

[grid]
L = 1.0
nx = 81

[integrator]
dt = 1e-3
scheme = semi-implicit

[initial]
v0 = 0.05
p0 = 0.03
v1 = 0.0
p1 = 0.0

[run]
t_end = 0.5
record_every = 10
seed = 0

[output]
outdir = {outdir}
"""


def _write_cfg(tmp_path, name="run.cfg", extra="", **fmt):
    path = tmp_path / name
    fmt.setdefault("outdir", str(tmp_path / "out"))
    path.write_text(BASE_CFG.format(**fmt) + extra, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# config parsing

def test_config_full_precision_floats(tmp_path):
    val = 0.1234567890123456789
    cfg_path = _write_cfg(tmp_path)
    text = open(cfg_path).read().replace("dt = 1e-3", f"dt = {val!r}")
    open(cfg_path, "w").write(text)
    assert load_run_config(cfg_path).dt == val


def test_malformed_config_raises(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[material]\nrho = not-a-number\n", encoding="utf-8")
    with pytest.raises(ConfigParse) as exc:
        load_run_config(str(path))
    assert "rho" in str(exc.value)


@pytest.mark.parametrize("word, value", [("ON", True), ("Yes", True),
                                         ("0", False), (" off ", False)])
def test_bool_takes_configparser_words(word, value):
    assert config._bool(word) is value


def test_bool_rejects_other_words():
    with pytest.raises(ConfigParse, match="not a boolean: 'maybe'"):
        config.parse("[integrator] damping", "maybe", config._bool)


def test_unknown_option_raises(tmp_path):
    cfg_path = _write_cfg(tmp_path, extra="\n[material]\nbogus = 1\n")
    with pytest.raises(ConfigParse):
        load_run_config(cfg_path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(ConfigParse):
        load_run_config(str(tmp_path / "absent.cfg"))


def test_initial_data_lists(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    text = open(cfg_path).read().replace("v0 = 0.05", "v0 = 0.1, -0.2, 0.05")
    open(cfg_path, "w").write(text)
    assert load_run_config(cfg_path).v0 == (0.1, -0.2, 0.05)


# ---------------------------------------------------------------------------
# simulate / classify CLI

def test_simulate_writes_all_outputs(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert main(["simulate", cfg_path]) == 0
    outdir = tmp_path / "out"
    for name in ("energy.csv", "well.json", "blowup.json", "summary.json"):
        assert (outdir / name).exists()
    header = (outdir / "energy.csv").read_text().splitlines()[0]
    assert header == "t,E,J,Etot,damping_cum,residual,sign_fn,Q,vnorm_n1," \
                     "pnorm_n2"
    summary = (outdir / "summary.json").read_text()
    assert '"outcome": "completed"' in summary
    assert '"classification": "global-predicted"' in summary


def test_simulate_zero_t_end_single_row(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    text = open(cfg_path).read().replace("t_end = 0.5", "t_end = 0.0")
    open(cfg_path, "w").write(text)
    assert main(["simulate", cfg_path]) == 0
    rows = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    assert len(rows) == 2   # header + one record


def test_classify_idempotent_byte_identical(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert main(["classify", cfg_path]) == 0
    first = (tmp_path / "out" / "well.json").read_bytes()
    assert main(["classify", cfg_path]) == 0
    second = (tmp_path / "out" / "well.json").read_bytes()
    assert first == second
    out = capsys.readouterr().out
    assert "global-predicted" in out


def test_classify_does_not_depend_on_seed(tmp_path):
    """[run] seed is checked but changes no output: well.json is
    byte-identical at seed = 0 and seed = 4 (m = 2, n = 3, nx = 201)."""
    outputs = []
    for seed in (0, 4):
        sub = tmp_path / f"seed{seed}"
        sub.mkdir()
        cfg_path = _write_cfg(sub)
        text = open(cfg_path).read()
        for old, new in (("m1 = 1.0", "m1 = 2.0"), ("m2 = 1.0", "m2 = 2.0"),
                         ("n1 = 2.0", "n1 = 3.0"), ("n2 = 2.0", "n2 = 3.0"),
                         ("nx = 81", "nx = 201"),
                         ("seed = 0", f"seed = {seed}")):
            text = text.replace(old, new)
        open(cfg_path, "w").write(text)
        assert main(["classify", cfg_path]) == 0
        outputs.append((sub / "out" / "well.json").read_bytes())
    assert outputs[0] == outputs[1]


def test_classify_scaled_data_predicts_blowup(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    text = open(cfg_path).read().replace("v0 = 0.05", "v0 = 50.0") \
                                .replace("p0 = 0.03", "p0 = 30.0")
    open(cfg_path, "w").write(text)
    assert main(["classify", cfg_path]) == 0
    assert "blowup-predicted" in capsys.readouterr().out


def test_cli_error_reporting(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("[material]\nrho = -1\n", encoding="utf-8")
    assert main(["simulate", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_bounds_where_the_bound_applies(tmp_path, capsys):
    """v0 = 8.7, p0 = 0: E0 = 0.217 > 0 is under both conventions'
    thresholds, so each prints kappa, tau and tmax_bound, and the run's
    blowup.json names the concavity bound (poincare-consistent) as its
    criterion."""
    cfg_path = _write_cfg(tmp_path)
    text = open(cfg_path).read().replace("v0 = 0.05", "v0 = 8.7") \
        .replace("p0 = 0.03", "p0 = 0.0") \
        .replace("t_end = 0.5", "t_end = 0.01")
    open(cfg_path, "w").write(text)
    assert main(["bounds", cfg_path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" = ")[0] for line in lines[1:]] == [
        f"[{c}] {key}" for c in ("poincare-consistent", "paper-literal")
        for key in ("E0", "kappa")]
    kappas = [float(line.split(",")[0].split(" = ")[1])
              for line in lines[2::2]]
    assert kappas == pytest.approx([9.9417, 1.2709], rel=1e-4)
    assert main(["simulate", cfg_path]) == 0
    report = json.loads((tmp_path / "out" / "blowup.json").read_text())
    assert report["criterion"] == "concavity-bound"
    assert report["kappa"] == kappas[0]
    assert report["G_monotone_ok"] is None


# ---------------------------------------------------------------------------
# fit CLI

def test_fit_cli_roundtrip(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    main(["simulate", cfg_path])
    csv_path = str(tmp_path / "out" / "energy.csv")
    assert main(["fit", csv_path, "--model", "exp"]) == 0
    out = capsys.readouterr().out
    assert "omega:" in out
    omega = float([l for l in out.splitlines()
                   if l.startswith("omega:")][0].split()[1])
    assert omega > 0.0


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_fit_cli_nonfinite_time_is_an_error(bad, tmp_path, capfd):
    """A CSV with a non-finite time exits 2 with an `error:` line, and
    nothing reaches stdout (LAPACK, given the time, printed there)."""
    path = tmp_path / "energy.csv"
    path.write_text(f"t,Etot\n0,1\n1,0.5\n2,0.25\n{bad},0.1\n",
                    encoding="utf-8")
    assert main(["fit", str(path), "--model", "exp"]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err.startswith("error:") and "times must be finite" in err


def test_fit_skipped_on_negative_energy(tmp_path):
    """A run asked for a poly fit whose Etot is negative (m = n - 1 = 2,
    E0 = -6.97) exits 0 with no fit_* key in summary.json, and as a sweep
    row it leaves the omega cell empty."""
    negative = """
[fit]
model = poly
"""
    cfg_path = _write_cfg(tmp_path, extra=negative)
    text = open(cfg_path).read()
    for old, new in [("m1 = 1.0", "m1 = 2.0"), ("m2 = 1.0", "m2 = 2.0"),
                     ("n1 = 2.0", "n1 = 3.0"), ("n2 = 2.0", "n2 = 3.0"),
                     ("v0 = 0.05", "v0 = 3.0"), ("p0 = 0.03", "p0 = 2.7")]:
        text = text.replace(old, new)
    open(cfg_path, "w").write(text)
    assert main(["simulate", cfg_path]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["E0"] == pytest.approx(-6.97, abs=0.01)
    assert not [key for key in summary if key.startswith("fit_")]
    open(cfg_path, "a").write("\n[sweep.axes]\ninitial.v0 = 3.0\n")
    assert main(["sweep", cfg_path]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[0].endswith(",omega") and len(rows) == 2
    assert rows[1].startswith("3,") and rows[1].endswith(",")


# ---------------------------------------------------------------------------
# sweep CLI

SWEEP_EXTRA = """
[sweep]
max_parallel = {mp}

[sweep.axes]
initial.v0 = 0.02; 0.05; 0.08
"""


def test_sweep_matches_single_run_summary(tmp_path):
    cfg_path = _write_cfg(tmp_path, extra="""
[sweep]
max_parallel = 1

[sweep.axes]
initial.v0 = 0.05
""")
    assert main(["sweep", cfg_path]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 2
    assert rows[0].startswith("initial.v0,classification,outcome")
    assert "completed" in rows[1]
    assert "global-predicted" in rows[1]


def test_sweep_deterministic_across_parallelism(tmp_path):
    outputs = {}
    for mp in (1, 8):
        sub = tmp_path / f"mp{mp}"
        sub.mkdir()
        cfg_path = _write_cfg(sub, extra=SWEEP_EXTRA.format(mp=mp))
        assert main(["sweep", cfg_path]) == 0
        outputs[mp] = (sub / "out" / "sweep.csv").read_bytes()
    assert outputs[1] == outputs[8]


def test_sweep_expansion_order_is_sorted(tmp_path):
    cfg_path = _write_cfg(tmp_path, extra="""
[sweep]
max_parallel = 2

[sweep.axes]
run.seed = 0, 1
initial.v0 = 0.02; 0.05
""")
    sweep = load_sweep_config(cfg_path)
    combos = [ov for ov, _ in expand_sweep(sweep)]
    assert [c["initial.v0"] for c in combos] == [(0.02,), (0.02,), (0.05,), (0.05,)]
    assert [c["run.seed"] for c in combos] == [0, 1, 0, 1]


def _counted(monkeypatch, module, name):
    """Count the calls of module.name, which still runs."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_runs_each_group_as_one_batch(tmp_path, monkeypatch):
    """Members that share everything but their initial data advance as one
    batch, and the well is analysed once per grid; every row still equals
    the summary of the member's own run."""
    cfg_path = _write_cfg(tmp_path, extra="""
[sweep.axes]
grid.nx = 41, 81
initial.v0 = 0.02; 0.05; 0.08
""")
    singles = [dict(cli.run_all([cfg]))[0]["summary"]
               for _, cfg in expand_sweep(load_sweep_config(cfg_path))]
    simulations = _counted(monkeypatch, cli, "simulate")
    wells = _counted(monkeypatch, cli, "well_report")
    assert main(["sweep", cfg_path]) == 0
    assert [args[0].y.shape for args in simulations] == [(3, 4, 41),
                                                         (3, 4, 81)]
    assert len(wells) == 2
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:] for row in rows] == [
        [cli.fmt(s.get(k)) for k in cli.SWEEP_KEYS] for s in singles]


def test_sweep_analyses_the_well_once_across_seeds(tmp_path, monkeypatch):
    """The well report depends on material, exponents and grid alone, so a
    sweep over run.seed makes one report; every row still equals the
    summary of the member's own run."""
    cfg_path = _write_cfg(tmp_path, extra="""
[sweep.axes]
run.seed = 0, 1
initial.v0 = 0.02; 0.05
""")
    singles = [dict(cli.run_all([cfg]))[0]["summary"]
               for _, cfg in expand_sweep(load_sweep_config(cfg_path))]
    wells = _counted(monkeypatch, cli, "well_report")
    assert main(["sweep", cfg_path]) == 0
    assert len(wells) == 1
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[2:] for row in rows] == [
        [cli.fmt(s.get(k)) for k in cli.SWEEP_KEYS] for s in singles]


@pytest.mark.parametrize("budget, shapes", [
    (60000, [(2, 4, 41), (2, 4, 41), (1, 4, 41)]),
    (1, [(1, 4, 41)] * 5)])
def test_sweep_splits_a_group_by_batch_bytes(tmp_path, monkeypatch, budget,
                                             shapes):
    """A group larger than cli.BATCH_BYTES allows steps as several
    batches: 27,360 bytes a member (nx = 41, 52 records) fit two to a
    60,000-byte budget, and a 1-byte budget steps each member alone.
    sweep.csv is byte-identical to the one-batch run either way."""
    cfg_path = _write_cfg(tmp_path, extra="""
[sweep.axes]
initial.v0 = 0.05; 0.5; 2; 40; 45
""")
    text = open(cfg_path).read().replace("nx = 81", "nx = 41").replace(
        "semi-implicit", "implicit-midpoint")
    open(cfg_path, "w").write(text)
    out = tmp_path / "out" / "sweep.csv"
    simulations = _counted(monkeypatch, cli, "simulate")
    assert main(["sweep", cfg_path]) == 0
    assert [args[0].y.shape for args in simulations] == [(5, 4, 41)]
    one_batch = out.read_bytes()
    simulations.clear()
    monkeypatch.setattr(cli, "BATCH_BYTES", budget)
    assert main(["sweep", cfg_path]) == 0
    assert [args[0].y.shape for args in simulations] == shapes
    assert out.read_bytes() == one_batch


def test_sweep_factorizes_once_per_batch(tmp_path, monkeypatch):
    """Building and validating the members checks the midpoint bands
    without factorizing them, so a one-group sweep of three members
    constructs one Stepper: the one its batch steps with."""
    cfg_path = _write_cfg(tmp_path, extra="""
[sweep.axes]
initial.v0 = 0.02; 0.05; 0.08
""")
    steppers = _counted(monkeypatch, integrator.Stepper, "__init__")
    assert main(["sweep", cfg_path]) == 0
    assert len(steppers) == 1


def test_sweep_batch_error_falls_on_its_member(tmp_path, monkeypatch):
    """A member whose source iteration stalls is a solver_failure row of
    its own, from the one batch that steps both members; the other row is
    what it reads alone."""
    cfg_path = _write_cfg(tmp_path, extra="""
[sweep.axes]
initial.v0 = 0.05; 1.0
""")
    text = open(cfg_path, encoding="utf-8").read()
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("semi-implicit", "implicit-midpoint")
                 .replace("t_end = 0.5", "t_end = 0.05"))
    # two solves per step meet a tolerance of 2e-14 at v0 = 0.05 but not
    # at v0 = 1 (the split holds from about 2e-15 to 2e-13)
    monkeypatch.setattr(integrator, "NEWTON_MAX_ITER", 2)
    monkeypatch.setattr(integrator, "NEWTON_TOL", 2e-14)
    simulations = _counted(monkeypatch, cli, "simulate")
    assert main(["sweep", cfg_path]) == 0
    assert len(simulations) == 1
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert rows[1:] == [
        "0.050000000000000003,global-predicted,completed,,,",
        "1,indeterminate,solver_failure,0.001,,"]


@pytest.mark.parametrize("command, builds", [
    ("simulate", 1), ("classify", 1), ("bounds", 1), ("sweep", 4)])
def test_each_run_builds_once(tmp_path, monkeypatch, command, builds):
    """Each run is built once (`build_run` is the only caller of
    make_params); a sweep also builds its base config, to fail fast."""
    cfg_path = _write_cfg(tmp_path, extra="""
[sweep.axes]
initial.v0 = 0.02; 0.05; 0.08
""" if command == "sweep" else "")
    made = _counted(monkeypatch, config, "make_params")
    assert main([command, cfg_path]) == 0
    assert len(made) == builds


def test_simulate_error_while_stepping(tmp_path, monkeypatch, capsys):
    """A run whose source iteration stalls exits 2, and writes its outputs:
    summary.json names the outcome and the solve that failed, at the step
    that failed, and energy.csv holds its one record, at t = 0."""
    cfg_path = _write_cfg(tmp_path)
    text = open(cfg_path, encoding="utf-8").read()
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(text.replace("semi-implicit", "implicit-midpoint")
                 .replace("t_end = 0.5", "t_end = 0.05")
                 .replace("v0 = 0.05", "v0 = 1.0"))
    monkeypatch.setattr(integrator, "NEWTON_MAX_ITER", 2)
    monkeypatch.setattr(integrator, "NEWTON_TOL", 2e-14)
    assert main(["simulate", cfg_path]) == 2
    assert capsys.readouterr() == (
        "outcome: solver_failure (t_detect = 0.001)\n", "")
    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert [summary[k] for k in ("outcome", "trigger", "t_detect",
                                 "t_final", "records")] == [
        "solver_failure", "source_iteration", 0.001, 0.0, 1]
    assert len((out / "energy.csv").read_text().splitlines()) == 2
    assert {"well.json", "blowup.json"} <= set(os.listdir(out))


SWEEP_AXIS = """
[sweep.axes]
initial.v0 = 0.02; 0.05
"""


@pytest.mark.parametrize("command", ["simulate", "classify", "sweep"])
def test_unusable_outdir_is_an_error_before_any_work(tmp_path, monkeypatch,
                                                     capsys, command):
    """An outdir below a regular file ends the command in an `error:` line
    that names it, exit 2, before any run steps or any well is analysed."""
    (tmp_path / "file").write_text("", encoding="utf-8")
    outdir = tmp_path / "file" / "out"
    cfg_path = _write_cfg(tmp_path, outdir=outdir,
                          extra=SWEEP_AXIS if command == "sweep" else "")
    stepped = _counted(monkeypatch, cli, "simulate")
    analysed = _counted(monkeypatch, cli, "well_report")
    assert main([command, cfg_path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {outdir}: ")
    assert stepped == analysed == []


@pytest.mark.parametrize("command, name", [
    ("simulate", "energy.csv"), ("simulate", "summary.json"),
    ("classify", "well.json"), ("sweep", "sweep.csv")])
def test_unwritable_output_file_is_an_error(tmp_path, capsys, command, name):
    """An output file that cannot be written, here a directory of its name,
    ends the command in one `error:` line that names it, exit 2."""
    (tmp_path / "out" / name).mkdir(parents=True)
    cfg_path = _write_cfg(tmp_path,
                          extra=SWEEP_AXIS if command == "sweep" else "")
    assert main([command, cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path / "out" / name) in err


def test_sweep_cap_enforced(tmp_path, capsys):
    """A sweep over its cap is a value out of range: InvalidArgument in the
    library, exit 2 with its message from the CLI."""
    cfg_path = _write_cfg(tmp_path, extra="""
[sweep]
cap = 2

[sweep.axes]
initial.v0 = 0.02; 0.05; 0.08
""")
    with pytest.raises(InvalidArgument, match="sweep size 3 exceeds cap 2"):
        load_sweep_config(cfg_path)
    assert main(["sweep", cfg_path]) == 2
    assert capsys.readouterr().err == "error: sweep size 3 exceeds cap 2\n"


# ---------------------------------------------------------------------------
# floats in outputs

def test_output_floats_have_full_precision(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    main(["simulate", cfg_path])
    rows = (tmp_path / "out" / "energy.csv").read_text().splitlines()
    e0 = rows[1].split(",")[1]
    # %.17g keeps the value bit-exact on round trip
    assert float(e0) == float("%.17g" % float(e0))
    assert len(e0.replace("-", "").replace(".", "").replace("e", "")) >= 10

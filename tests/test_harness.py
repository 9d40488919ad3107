import os

import numpy as np
import pytest

import piezowave as pw
from piezowave.cli import main
from piezowave.config import (expand_sweep, load_run_config,
                              load_sweep_config)
from piezowave.errors import ConfigParse

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


def test_sweep_cap_enforced(tmp_path):
    cfg_path = _write_cfg(tmp_path, extra="""
[sweep]
cap = 2

[sweep.axes]
initial.v0 = 0.02; 0.05; 0.08
""")
    with pytest.raises(ConfigParse):
        load_sweep_config(cfg_path)


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

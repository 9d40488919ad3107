"""Bad input ends in a typed error (exit code 2) or a named outcome, never in
a traceback or a silent `completed`."""
import csv

import pytest

from piezowave.cli import main

RUN_CFG = """
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
nx = {nx}

[integrator]
dt = {dt}

[initial]
v0 = {v0}
p0 = 0.03

[run]
t_end = {t_end}
record_every = {record_every}

[output]
outdir = {outdir}
"""


def _write(tmp_path, extra="", **values):
    values = {"v0": "0.05", "nx": "41", "dt": "1e-3", "t_end": "0.02",
              "record_every": "5", **values}
    path = tmp_path / "run.cfg"
    path.write_text(RUN_CFG.format(outdir=tmp_path / "out", **values) + extra,
                    encoding="utf-8")
    return str(path)


def _sweep_rows(tmp_path):
    with open(tmp_path / "out" / "sweep.csv", encoding="utf-8",
              newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("command, extra, env, values", [
    ("simulate", "", None, {"nx": "2"}),
    ("simulate", "", None, {"dt": "nan"}),
    ("simulate", "", None, {"t_end": "-1"}),
    ("simulate", "", None, {"record_every": "0"}),
    ("sweep", "\n[sweep]\nmax_parallel = abc\n"
              "[sweep.axes]\ninitial.v0 = 0.05\n", None, {}),
    ("sweep", "\n[sweep]\nmax_parallel = 0\n"
              "[sweep.axes]\ninitial.v0 = 0.05\n", None, {}),
    ("sweep", "\n[sweep.axes]\ninitial.v0 = 0.05\n", "abc", {}),
], ids=["nx-too-small", "dt-nan", "t-end-negative", "record-every-zero", "max-parallel-not-int",
        "max-parallel-zero", "threads-env-not-int"])
def test_bad_input_exits_2_with_error_line(tmp_path, capsys, monkeypatch,
                                           command, extra, env, values):
    if env is not None:
        monkeypatch.setenv("PIEZOWAVE_THREADS", env)
    assert main([command, _write(tmp_path, extra, **values)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_invalid_sweep_member_is_an_error_row(tmp_path):
    cfg = _write(tmp_path, extra="\n[sweep.axes]\ngrid.nx = 41, 2\n")
    assert main(["sweep", cfg]) == 0
    header, good, bad = _sweep_rows(tmp_path)
    assert header[:3] == ["grid.nx", "classification", "outcome"]
    assert good[0] == "41" and good[2] == "completed"
    assert bad[0] == "2" and bad[2].startswith("error: ")
    assert "nx = 2" in bad[2]


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

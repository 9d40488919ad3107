"""Bad input ends in a typed error (exit code 2) or a named outcome, never in
a traceback or a silent `completed`."""
import csv
import json

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
m1 = {m}
m2 = {m}
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
    values = {"v0": "0.05", "m": "1.0", "nx": "41", "dt": "1e-3",
              "t_end": "0.02", "record_every": "5", **values}
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
], ids=["nx-too-small", "dt-nan", "t-end-negative", "record-every-zero",
        "max-parallel-not-int", "max-parallel-zero", "fit-eta-zero",
        "fit-C-below-1", "fit-missing-file", "fit-non-numeric",
        "fit-no-Etot-column", "fit-short-row"])
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
    # non-finite values print as null, so every file is valid JSON
    for name in ("summary.json", "well.json", "blowup.json"):
        with open(tmp_path / "out" / name, encoding="utf-8") as fh:
            json.load(fh)
    assert json.loads(summary)["E0"] is None


def test_bounds_without_linear_damping_is_inapplicable(tmp_path, capsys):
    assert main(["bounds", _write(tmp_path, m="2.0")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("poincare_c: ")
    assert lines[1:] == [
        f"[{c}] bound inapplicable: threshold and bound require m1 = m2 = 1"
        for c in ("poincare-consistent", "paper-literal")]

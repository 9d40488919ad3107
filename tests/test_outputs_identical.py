"""The tolerance mode of tools/outputs_identical.py: numbers agree to
atol + rtol * max(|a|, |b|), everything else and every t_detect exactly;
and the solves that two of its sweeps take."""
import importlib.util
from pathlib import Path

import pytest

import piezowave as pw
from piezowave.cli import main

_PATH = Path(__file__).resolve().parents[1] / "tools" / "outputs_identical.py"
_SPEC = importlib.util.spec_from_file_location("outputs_identical", _PATH)
oi = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oi)


def _tol():
    return oi.Tolerance(rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("a, b, ok", [
    ("omega = 0.0406374769\n", "omega = 0.0406374789\n", True),
    ("omega = 0.0406374769\n", "omega = 0.0407\n", False),
    ("residual 1.4e-14\n", "residual 4.1e-11\n", True),
    ("model exp accepted True\n", "model exp accepted False\n", False),
    ("outcome: blowup (t_detect = 0.5)\n",
     "outcome: blowup (t_detect = 0.50000000000000011)\n", False),
    ("outcome: blowup\n", "outcome: completed\n", False),
    ("a = 1\nb = 2\n", "a = 1\n", False),
    ("x = nan\n", "x = nan\n", True),
])
def test_close_text(a, b, ok):
    assert oi.close_text(a, b, _tol()) is ok


@pytest.mark.parametrize("a, b, ok", [
    ("t,E\n0,1.0\n", "t,E\n0,1.0000001\n", True),
    ("t,E\n0,1.0\n", "t,E\n0,1.1\n", False),
    ("t,E\n0,1.0\n", "t,Etot\n0,1.0\n", False),
    ("v0,outcome\n1,blowup\n", "v0,outcome\n1,completed\n", False),
    ("v0,t_detect\n1,0.9\n", "v0,t_detect\n1,0.90000000000000002\n", True),
    ("v0,t_detect\n1,0.9\n", "v0,t_detect\n1,0.9000000001\n", False),
    ("t,E\n0,1.0\n", "t,E\n0,1.0\n1,2.0\n", False),
])
def test_close_csv(a, b, ok):
    assert oi.close_csv(a, b, _tol()) is ok


@pytest.mark.parametrize("a, b, ok", [
    ({"E_final": 1.0, "runs": [1, 2]}, {"E_final": 1.0000001, "runs": [1, 2]},
     True),
    ({"E_final": 1.0}, {"E_final": 1.1}, False),
    ({"E_final": 1.0}, {"E_fin": 1.0}, False),
    ({"outcome": "blowup"}, {"outcome": "completed"}, False),
    ({"t_detect": 0.9}, {"t_detect": 0.9000000001}, False),
    ({"t_detect": None}, {"t_detect": None}, True),
    ({"accepted": True}, {"accepted": 1}, False),
    ({"x": None}, {"x": 0.0}, False),
])
def test_close_json(a, b, ok):
    assert oi.close_json(a, b, _tol()) is ok


def test_exit_codes_are_never_close(tmp_path):
    a, b = tmp_path / "a.exit", tmp_path / "b.exit"
    a.write_text("0\n")
    b.write_text("2\n")
    assert not oi.close(a, b, oi.Tolerance(rtol=1.0, atol=10.0))


def test_worst_pair_is_reported():
    tol = _tol()
    assert oi.close_text("a 1.0 b 2.0\n", "a 1.0000001 b 2.000001\n", tol)
    share, where = tol.worst
    assert where.startswith("line 1: 2.0 vs 2.000001")
    assert share == pytest.approx(1e-6 / (1e-9 + 1e-6 * 2.000001))


@pytest.mark.parametrize("config, solves", [("MIXED_SWEEP_CFG", 2781),
                                            ("NEWTON_SWEEP_CFG", 7326)],
                         ids=["mixed-damping", "newton"])
def test_sweep_midpoint_solves(config, solves, tmp_path, monkeypatch):
    """The midpoint solves of the `mixed-damping` and `newton` sweeps.  A
    member whose source iteration turns NaN (past its blow-up, or its own
    failure) is marked and dropped on that iterate instead of running out
    NEWTON_MAX_ITER: run out, the counts read 2,832 and 7,518."""
    factorize, calls = pw.Stepper._factorize, []

    def counted(self, *args):
        solve = factorize(self, *args)
        return lambda rhs: calls.append(1) or solve(rhs)
    monkeypatch.setattr(pw.Stepper, "_factorize", counted)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.cfg").write_text(getattr(oi, config), encoding="utf-8")
    assert main(["sweep", "sweep.cfg"]) == 0
    assert len(calls) == solves

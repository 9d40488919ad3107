"""Command-line harness.

Subcommands:
    simulate <cfg>   run one simulation, write energy.csv / well.json /
                     blowup.json / summary.json into the configured outdir
    classify <cfg>   well analysis and classification only (no stepping)
    sweep <cfg>      cross-product of runs, one summary row per run
    fit <csv>        fit a decay envelope to a recorded energy.csv
    bounds <cfg>     print kappa, tau and the blow-up time bound under
                     both threshold conventions

All output is UTF-8 and floats carry 17 significant digits, so repeated
invocations with the same config are byte-identical.
"""
from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import blowup as bl
from . import decay
from .config import (RunConfig, expand_sweep, fmt, load_run_config,
                     load_sweep_config, validate_run_config)
from .diagnostics import CSV_FIELDS, QUIET
from .errors import (BoundInapplicable, ConfigParse, NonPositiveSeries,
                     PiezowaveError)
from .integrator import simulate
from .well import classify_initial, poincare_constant, well_report


def _json_scalar(value) -> str:
    # JSON has no NaN or infinity: non-finite floats print as null
    if value is None or (isinstance(value, (float, np.floating))
                         and not np.isfinite(value)):
        return "null"
    if isinstance(value, (int, float, np.integer, np.floating)):
        return fmt(value)      # bools are ints: true / false
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_json(obj: dict, path: str) -> None:
    """Flat-dict JSON writer with controlled float formatting."""
    lines = [f'  "{k}": {_json_scalar(v)}' for k, v in obj.items()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def write_energy_csv(records, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for r in records:
            writer.writerow([fmt(getattr(r, f)) for f in CSV_FIELDS])


def _fit_trajectory(traj, cfg: RunConfig, exps):
    """Optional decay fit on the recorded Etot series; None if not asked
    or the series is not usable (fewer than 4 records, or values that are
    not all finite and > 0)."""
    if cfg.fit_model is None or len(traj.records) < 4:
        return None
    times = np.array([r.t for r in traj.records])
    values = np.array([r.Etot for r in traj.records])
    eta = decay.eta_from_exponents(exps)
    eta_eff = eta if eta > 0.0 else 1.0   # nominal eta for m = 1 probes
    try:
        return decay.FITS[cfg.fit_model](times, values, eta_eff, cfg.fit_C)
    except NonPositiveSeries:
        return None


def _problem(cfg: RunConfig):
    """Material, exponents, grid and initial state of a run config."""
    return cfg.material(), cfg.exponents(), cfg.grid(), cfg.initial_state()


def run_one(cfg: RunConfig):
    """Execute one configured run; returns a result dict for summaries."""
    params, exps, grid, state0 = _problem(cfg)
    report = well_report(params, exps, grid, seed=cfg.seed)
    report.classification = classify_initial(state0, report, params, exps,
                                             grid)
    traj = simulate(state0, params, exps, grid, cfg.step_config(),
                    cfg.t_end, cfg.record_every)
    breport = bl.blowup_report(traj, state0, params, exps, grid,
                               report.poincare_c)
    fit = _fit_trajectory(traj, cfg, exps)
    return {"params": params, "exps": exps, "grid": grid, "state0": state0,
            "well": report, "classification": report.classification,
            "trajectory": traj, "blowup": breport, "fit": fit}


def cli_simulate(path: str) -> int:
    cfg = load_run_config(path)
    os.makedirs(cfg.outdir, exist_ok=True)
    result = run_one(cfg)
    traj = result["trajectory"]
    write_energy_csv(traj.records, os.path.join(cfg.outdir, "energy.csv"))
    write_json(result["well"].as_dict(), os.path.join(cfg.outdir, "well.json"))
    write_json(result["blowup"].as_dict(),
               os.path.join(cfg.outdir, "blowup.json"))
    summary = {
        "classification": result["classification"],
        "outcome": traj.outcome,
        "t_detect": traj.t_detect,
        "trigger": traj.trigger,
        "t_final": traj.final_state.t,
        "E0": traj.records[0].Etot,
        "E_final": traj.records[-1].Etot,
        "tmax_bound": result["blowup"].tmax_bound,
        "records": len(traj.records),
    }
    if result["fit"] is not None:
        summary["fit_model"] = result["fit"].model
        summary["fit_omega"] = result["fit"].omega
        summary["fit_rmse"] = result["fit"].rmse
    write_json(summary, os.path.join(cfg.outdir, "summary.json"))
    print(f"outcome: {traj.outcome}"
          + (f" (t_detect = {fmt(traj.t_detect)})"
             if traj.t_detect is not None else ""))
    return 0


def cli_classify(path: str) -> int:
    cfg = load_run_config(path)
    params, exps, grid, state0 = _problem(cfg)
    report = well_report(params, exps, grid, seed=cfg.seed)
    report.classification = classify_initial(state0, report, params, exps,
                                             grid)
    os.makedirs(cfg.outdir, exist_ok=True)
    write_json(report.as_dict(), os.path.join(cfg.outdir, "well.json"))
    print(report.classification)
    return 0


def _sweep_row(names, overrides, cfg: RunConfig):
    cells = [fmt(overrides[n]) for n in names]
    try:
        result = run_one(validate_run_config(cfg))
    except PiezowaveError as exc:
        return cells + ["", f"error: {exc}", "", "", ""]
    traj = result["trajectory"]
    fit = result["fit"]
    return cells + [fmt(result["classification"]), traj.outcome,
                    fmt(traj.t_detect), fmt(result["blowup"].tmax_bound),
                    fmt(fit.omega if fit is not None else None)]


def cli_sweep(path: str) -> int:
    sweep = load_sweep_config(path)
    names = list(sweep.axes.keys())
    # one member after another, in expansion (sorted-axes) order
    rows = [_sweep_row(names, ov, cfg) for ov, cfg in expand_sweep(sweep)]
    os.makedirs(sweep.base.outdir, exist_ok=True)
    out = os.path.join(sweep.base.outdir, "sweep.csv")
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names + ["classification", "outcome", "t_detect",
                                 "tmax_bound", "omega"])
        writer.writerows(rows)
    failed = sum(1 for r in rows if r[len(names) + 1].startswith("error"))
    print(f"{len(rows)} runs, {failed} failed -> {out}")
    return 1 if failed == len(rows) else 0


def cli_fit(path: str, model: str, C: float, eta: float) -> int:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        raise ConfigParse(f"cannot read {path}: {exc}") from None
    try:
        fit = decay.FITS[model]([float(row["t"]) for row in rows],
                                [float(row["Etot"]) for row in rows], eta, C)
    except (KeyError, TypeError, ValueError) as exc:
        # no t/Etot column, a short row, a bad number or a bad fit argument
        raise ConfigParse(f"fit {path} --model {model}: {exc!r}") from None
    for key, value in fit.as_dict().items():
        print(f"{key}: {fmt(value)}")
    return 0


def cli_bounds(path: str) -> int:
    cfg = load_run_config(path)
    params, exps, grid, state0 = _problem(cfg)
    pc = poincare_constant(grid)
    print(f"poincare_c: {fmt(pc)}")
    for convention in ("poincare-consistent", "paper-literal"):
        try:
            thr = bl.theorem210_threshold(state0, params, exps, grid, pc,
                                          convention)
            print(f"[{convention}] E0 = {fmt(thr['E0'])}, "
                  f"threshold = {fmt(thr['bound_value'])}, "
                  f"satisfied = {fmt(thr['satisfied'])}")
            kappa, tau, bound = bl.tmax_upper_bound(state0, params, exps,
                                                    grid, pc, convention)
        except BoundInapplicable as exc:
            print(f"[{convention}] bound inapplicable: {exc}")
        else:
            print(f"[{convention}] kappa = {fmt(kappa)}, tau = {fmt(tau)}, "
                  f"tmax_bound = {fmt(bound)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="piezowave",
        description="Numerical laboratory for a magnetically coupled "
                    "piezoelectric beam system with nonlinear damping "
                    "and source terms.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate").add_argument("config")
    sub.add_parser("classify").add_argument("config")
    sub.add_parser("sweep").add_argument("config")
    fit_p = sub.add_parser("fit")
    fit_p.add_argument("csv")
    fit_p.add_argument("--model", required=True,
                       choices=tuple(decay.FITS))
    fit_p.add_argument("--C", type=float, default=2.0)
    fit_p.add_argument("--eta", type=float, default=1.0)
    sub.add_parser("bounds").add_argument("config")
    args = parser.parse_args(argv)
    # overflow ends as a blowup outcome or a typed error, not as warnings
    with np.errstate(**QUIET):
        try:
            if args.command == "simulate":
                return cli_simulate(args.config)
            if args.command == "classify":
                return cli_classify(args.config)
            if args.command == "sweep":
                return cli_sweep(args.config)
            if args.command == "fit":
                return cli_fit(args.csv, args.model, args.C, args.eta)
            return cli_bounds(args.config)
        except PiezowaveError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())

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
from dataclasses import asdict
from numbers import Real
from pathlib import Path

import numpy as np

from . import blowup as bl
from . import decay
from .config import (RunConfig, build_run, expand_sweep, fmt,
                     load_run_config, load_sweep_config)
from .diagnostics import CSV_FIELDS, QUIET
from .errors import (BoundInapplicable, ConfigParse, InvalidArgument,
                     NonPositiveSeries, PiezowaveError)
from .grid import State
from .integrator import simulate, step_count
from .well import classify_initial, poincare_constant, well_report


def _json_scalar(value) -> str:
    # JSON has no NaN or infinity: non-finite floats print as null
    if value is None or (isinstance(value, (float, np.floating))
                         and not np.isfinite(value)):
        return "null"
    if isinstance(value, Real):
        return fmt(value)      # bools are ints: true / false
    return '"' + str(value).replace("\\", "\\\\").replace('"', '\\"') + '"'


def write_json(obj: dict, path: str) -> None:
    """Flat-dict JSON writer with controlled float formatting."""
    lines = [f'  "{k}": {_json_scalar(v)}' for k, v in obj.items()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def write_csv(header, rows, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fit_summary(traj, cfg: RunConfig, exps) -> dict:
    """The summary.json keys of the optional decay fit on the recorded Etot
    series; none if not asked or the series is not usable (fewer than 4
    records, or values that are not all finite and > 0)."""
    if cfg.fit_model is None or len(traj.records) < 4:
        return {}
    times = np.array([r.t for r in traj.records])
    values = np.array([r.Etot for r in traj.records])
    eta = decay.eta_from_exponents(exps) or 1.0  # nominal eta for m = 1 probes
    try:
        fit = decay.FITS[cfg.fit_model](times, values, eta, cfg.fit_C)
    except NonPositiveSeries:
        return {}
    return {"fit_model": fit.model, "fit_omega": fit.omega,
            "fit_rmse": fit.rmse}


def _classified_well(wells: dict, params, exps, grid, state0) -> dict:
    """The well.json dict of a run: its well report, then its initial
    data's classification.  wells keeps the reports so far by (material,
    exponents, grid), which fix a report, and no classification."""
    key = (params, exps, grid)
    if key not in wells:
        wells[key] = well_report(params, exps, grid)
    return {**asdict(wells[key]), "classification": classify_initial(
        state0, wells[key], params, exps, grid)}


def run_one(cfg: RunConfig, run, traj, wells: dict) -> dict:
    """The report on a run that has been stepped: its "trajectory" and the
    "well", "blowup" and "summary" JSON dicts.  run is `build_run(cfg)`,
    and wells keeps the well reports so far (see `_classified_well`)."""
    params, exps, grid, _, state0 = run
    well = _classified_well(wells, params, exps, grid, state0)
    breport = bl.blowup_report(traj, state0, params, exps, grid)
    summary = {
        "classification": well["classification"],
        "outcome": traj.outcome,
        "t_detect": traj.t_detect,
        "trigger": traj.trigger,
        "t_final": traj.final_state.t,
        "E0": traj.records[0].Etot,
        "E_final": traj.records[-1].Etot,
        "tmax_bound": breport.tmax_bound,
        "records": len(traj.records),
        **_fit_summary(traj, cfg, exps),
    }
    return {"trajectory": traj, "well": well,
            "blowup": asdict(breport), "summary": summary}


# Bytes of states and energy records that one batch may hold: per member,
# about 20 float arrays of nx nodes while a step runs and about 400 bytes
# per EnergyRecord (the block of states `simulate` keeps has its own cap,
# BLOCK_BYTES, for the whole batch).  A larger group steps as several batches.
BATCH_BYTES = 2**28


def run_all(cfgs: list):
    """Build, step and report on each config once, yielding (index, run_one's
    dict or the PiezowaveError the run ended in) batch by batch, so that a
    caller can drop each trajectory as it goes.  Runs that share material,
    exponents, grid, step config, t_end and record_every advance as one
    batch of `simulate`, as many as BATCH_BYTES allows; a single run is a
    batch of one, and a member whose solve fails is its own outcome."""
    groups, wells = {}, {}
    for i, cfg in enumerate(cfgs):
        try:
            run = build_run(cfg)
        except PiezowaveError as exc:
            yield i, exc
            continue
        key = run[:4] + (cfg.t_end, cfg.record_every)
        groups.setdefault(key, []).append((i, run))
    for key, group in groups.items():
        _, _, grid, step, t_end, record_every = key
        records = step_count(t_end, step.dt) // record_every + 2
        size = max(1, BATCH_BYTES // (160 * grid.nx + 400 * records))
        for batch in (group[j:j + size] for j in range(0, len(group), size)):
            y = np.array([run[4].y for _, run in batch])
            for (i, run), traj in zip(batch, simulate(State.stacked(y), *key)):
                try:
                    yield i, run_one(cfgs[i], run, traj, wells)
                except PiezowaveError as exc:
                    yield i, exc


def _check_outdir(path: str) -> None:
    """InvalidArgument naming path unless its nearest existing ancestor is a
    directory, checked before any work; path is made once the work is done."""
    up = next(p for p in (Path(path), *Path(path).parents) if p.exists())
    if not up.is_dir():
        raise InvalidArgument(f"cannot write {path}: {up} is not a directory")


def cli_simulate(path: str) -> int:
    cfg = load_run_config(path)
    _check_outdir(cfg.outdir)
    [(_, result)] = run_all([cfg])
    if isinstance(result, PiezowaveError):
        raise result
    traj = result["trajectory"]
    os.makedirs(cfg.outdir, exist_ok=True)
    write_csv(CSV_FIELDS, ([fmt(getattr(r, f)) for f in CSV_FIELDS]
                           for r in traj.records),
              os.path.join(cfg.outdir, "energy.csv"))
    for name in ("well", "blowup", "summary"):
        write_json(result[name], os.path.join(cfg.outdir, f"{name}.json"))
    print(f"outcome: {traj.outcome}"
          + (f" (t_detect = {fmt(traj.t_detect)})"
             if traj.t_detect is not None else ""))
    return 2 if traj.outcome == "solver_failure" else 0


def cli_classify(path: str) -> int:
    cfg = load_run_config(path)
    _check_outdir(cfg.outdir)
    params, exps, grid, _, state0 = build_run(cfg)
    well = _classified_well({}, params, exps, grid, state0)
    os.makedirs(cfg.outdir, exist_ok=True)
    write_json(well, os.path.join(cfg.outdir, "well.json"))
    print(well["classification"])
    return 0


# summary.json keys of a sweep.csv row's last cells (fit_omega as "omega")
SWEEP_KEYS = ("classification", "outcome", "t_detect", "tmax_bound",
              "fit_omega")


def cli_sweep(path: str) -> int:
    sweep = load_sweep_config(path)
    _check_outdir(sweep.base.outdir)
    names = list(sweep.axes.keys())
    members = list(expand_sweep(sweep))
    summaries = {i: {"outcome": f"error: {result}"}
                 if isinstance(result, PiezowaveError) else result["summary"]
                 for i, result in run_all([cfg for _, cfg in members])}
    rows = [[fmt(overrides[n]) for n in names]
            + [fmt(summaries[i].get(key)) for key in SWEEP_KEYS]
            for i, (overrides, _) in enumerate(members)]
    os.makedirs(sweep.base.outdir, exist_ok=True)
    out = os.path.join(sweep.base.outdir, "sweep.csv")
    write_csv(names + [k.removeprefix("fit_") for k in SWEEP_KEYS], rows, out)
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
    for key, value in asdict(fit).items():
        print(f"{key}: {fmt(value)}")
    return 0


def cli_bounds(path: str) -> int:
    params, exps, grid, _, state0 = build_run(load_run_config(path))
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

    def config_command(name, command):
        config_p = sub.add_parser(name)
        config_p.add_argument("config")
        config_p.set_defaults(run=lambda args: command(args.config))

    config_command("simulate", cli_simulate)
    config_command("classify", cli_classify)
    config_command("sweep", cli_sweep)
    fit_p = sub.add_parser("fit")
    fit_p.add_argument("csv")
    fit_p.add_argument("--model", required=True, choices=tuple(decay.FITS))
    fit_p.add_argument("--C", type=float, default=2.0)
    fit_p.add_argument("--eta", type=float, default=1.0)
    fit_p.set_defaults(run=lambda a: cli_fit(a.csv, a.model, a.C, a.eta))
    config_command("bounds", cli_bounds)
    args = parser.parse_args(argv)
    # overflow ends as a blowup outcome or a typed error, not as warnings
    with np.errstate(**QUIET):
        try:
            return args.run(args)
        except (PiezowaveError, OSError) as exc:  # OSError: writing outputs
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())

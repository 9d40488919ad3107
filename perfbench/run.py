"""piezowave benchmark: seeded workloads through the library API and the
in-process CLI, six end-to-end metrics, an output oracle, and a traced run
for per-layer numbers.

Run from the root of a checkout; the package is imported from ./src:

    python3 perfbench/run.py --workload decay-m3 --seed 1 --trace 0

The timed phase runs a fixed number of units of work (one solution each: a
simulate run, an ensemble, or a CLI sweep), set by --seconds and the
workload's nominal unit time.  Unit times are normalised to a reference host
speed by hostspeed.Sampler.  With --trace 1 untraced and traced units
alternate, and the traced ones record spans.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it ("detail: ...") holds the environment, the raw
and normalised samples behind each timing and any oracle failures.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SPAWNS = 7
SETUP_SAMPLES = 3          # calibration samples on each side of a child
MIN_UNITS = 4
PROBE_ROUNDS = 300
PROBE_INITS = 40
PROBE_SAMPLE_EVERY = 10


def setup_program():
    """Pin BLAS to one thread (sweep workers x BLAS threads <= nproc), leave
    PIEZOWAVE_THREADS unset, and import piezowave from ./src only."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    os.environ.pop("PIEZOWAVE_THREADS", None)
    src = ROOT / "src"
    if not (src / "piezowave" / "__init__.py").is_file():
        raise SystemExit(f"error: no piezowave package under {src}")
    sys.path.insert(0, str(src))
    import piezowave
    package = Path(piezowave.__file__).resolve().parent
    if package != (src / "piezowave").resolve():
        raise SystemExit(f"error: imported {piezowave.__file__}, not ./src")


def environment(workers: int) -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    nproc = os.cpu_count()
    blas = int(os.environ["OPENBLAS_NUM_THREADS"])
    return {"nproc": nproc, "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "PIEZOWAVE_THREADS": os.environ.get("PIEZOWAVE_THREADS"),
            "sweep_workers": workers, "total_threads": workers * blas,
            "threads_within_nproc": workers * blas <= nproc}


def timing(samples: list) -> dict:
    """Median and the highest percentile with >= 10 samples beyond it."""
    s = sorted(samples)
    out = {"n": len(s), "median": statistics.median(s), "samples": s,
           "tail_pct": None, "tail": None}
    if len(s) > 10:
        out["tail_pct"] = 100.0 * (len(s) - 10) / len(s)
        out["tail"] = s[len(s) - 11]
    return out


def measure_setup(args, cpus, sampler) -> list:
    """(raw, normalised) seconds for fresh processes, taking turns on the
    cores, to import piezowave and build the workload's inputs.  Each child
    inherits this process's core, and calibration samples taken here just
    before and after it bracket its work."""
    from hostspeed import REFERENCE_SAMPLE_S
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    try:
        for i in range(SETUP_SPAWNS):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            for _ in range(SETUP_SAMPLES):
                sampler.sample()
            out = subprocess.run(cmd, check=True, timeout=120, cwd=ROOT,
                                 capture_output=True, text=True)
            for _ in range(SETUP_SAMPLES):
                sampler.sample()
            speed = statistics.median(
                sampler.durations()[-2 * SETUP_SAMPLES:])
            raw = float(out.stdout.splitlines()[-1])
            times.append((raw, raw * REFERENCE_SAMPLE_S / speed))
    finally:
        os.sched_setaffinity(0, cpus)
    return times


def setup_probe(args, start: float) -> int:
    """Child side of measure_setup: `start` was taken before piezowave,
    numpy and scipy were imported."""
    setup_program()
    import workloads as W
    wl = W.WORKLOADS[args.workload]
    W.build_inputs(wl, wl.amplitudes(args.seed))
    print(perf_counter() - start)
    return 0


def probe_steps(wl, state, sampler) -> dict:
    """Median us of Stepper construction and of Stepper.step on one state,
    with the workload's StepConfig ("full") and with damping or sources
    off, scaled to the reference host speed.  The shares of damping and
    source iteration are the differences from "full" on this same state."""
    import piezowave as pw
    import workloads as W
    params, grid = W.problem()
    exps = pw.validate_exponents(*wl.exps)
    variants = W.step_variants(wl)
    steppers = {k: pw.Stepper(grid, params, cfg)
                for k, cfg in variants.items()}
    timed = {k: [] for k in (*steppers, "init")}   # (start s, ns) pairs
    sampler.sample()
    for i in range(PROBE_ROUNDS):
        for k, stepper in steppers.items():
            start = perf_counter_ns()
            stepper.step(state, exps)
            timed[k].append((start, perf_counter_ns() - start))
        if i % PROBE_SAMPLE_EVERY == 0:
            sampler.sample()
    for i in range(PROBE_INITS):
        start = perf_counter_ns()
        pw.Stepper(grid, params, variants["full"])
        timed["init"].append((start, perf_counter_ns() - start))
        sampler.sample()
    out = {}
    for k, pairs in timed.items():
        factors = sampler.factors([t * 1e-9 for t, _ in pairs])
        out[k] = statistics.median(ns * f for (_, ns), f
                                   in zip(pairs, factors)) * 1e-3
    return out


class Oracle:
    """Checks each unit as it finishes, so later units' trajectories need
    not be kept and peak memory does not grow with the number of units."""

    def __init__(self, wl, reference: dict):
        import workloads as W
        self.wl = wl
        self.ref = reference["workloads"][wl.name]
        self.bound = W.RESIDUAL_FACTOR * self.ref["residual_max"]
        self.facts = {}
        self.attempted = self.failed = 0
        self.residual_max = 0.0
        self.problems = []

    def check(self, unit):
        import workloads as W
        for m in unit.members:
            self.attempted += 1
            entry = self.ref["members"].get(W.key(m.amplitude))
            if m.amplitude not in self.facts:
                self.facts[m.amplitude] = W.member_facts(self.wl, m.amplitude)
            found = ["no reference entry"] if entry is None else \
                W.check_member(self.wl, m, entry, self.facts[m.amplitude],
                               self.ref["M_threshold"], self.bound)
            if found:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append({"amplitude": m.amplitude,
                                          "problems": found})
            if m.outcome == "completed" and m.trajectory is not None:
                self.residual_max = max(self.residual_max,
                                        W.residual_of(m.trajectory))


def run(args) -> dict:
    import workloads as W
    from hostspeed import Sampler
    from tracing import Tracer, per_layer
    wl = W.WORKLOADS[args.workload]
    amplitudes = wl.amplitudes(args.seed)
    cpus = sorted(os.sched_getaffinity(0))
    tracer = Tracer() if args.trace else None
    sampler = Sampler()
    setup = measure_setup(args, cpus, sampler) if tracer is None else []
    inputs = W.build_inputs(wl, amplitudes)
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    oracle = Oracle(wl, reference)
    # A fixed number of units, set by --seconds and the workload's nominal
    # unit time, so the sample count does not depend on the program's speed.
    reps = max(MIN_UNITS, round(args.seconds / wl.unit_s))
    if tracer is not None:
        reps += reps % 2        # untraced/traced pairs
    units, traced = [], []
    sampler.install()
    try:
        for rep in range(reps):
            on = tracer is not None and rep % 2 == 1
            # Units take turns on the cores (untraced/traced pairs share
            # one), so a unit and its calibration samples run on one core.
            os.sched_setaffinity(0, {cpus[rep // (2 if tracer else 1)
                                          % len(cpus)]})
            if on:
                tracer.unit = rep
                tracer.install()
            sampler.sample()
            start = perf_counter()
            try:
                unit = W.run_unit(wl, amplitudes, inputs, rep, workdir)
            finally:
                end = perf_counter()
                sampler.sample()
                if on:
                    tracer.uninstall()
            unit.wall, unit.norm = sampler.window(start, end)
            oracle.check(unit)
            if units:           # the first unit's states feed the probes
                for m in unit.members:
                    m.trajectory = None
            units.append(unit)
            traced.append(on)
    finally:
        sampler.uninstall()
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = oracle.attempted, oracle.failed
    plain = [u for u, on in zip(units, traced) if not on]
    wall = statistics.median(u.norm for u in plain)
    detail = {"workload": wl.name, "seed": args.seed,
              "amplitudes": amplitudes, "units": len(units),
              "env": environment(W.SWEEP_WORKERS),
              "unit_wall_s": timing([u.norm for u in plain]),
              "unit_raw_wall_s": timing([u.wall for u in plain]),
              "calibration_sample_s": {
                  "n": len(sampler.samples),
                  "median": statistics.median(sampler.durations())},
              "problems": oracle.problems}
    if tracer is None:
        detail["setup_s"] = timing([n for _, n in setup])
        detail["setup_raw_s"] = timing([r for r, _ in setup])
        metrics = {
            "wall_s": (wall, "s"),
            "steps_per_s": (plain[0].steps / wall, "1/s"),
            "setup_s": (statistics.median(n for _, n in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
            "ok_frac": ((attempted - failed) / attempted, "frac"),
            "residual_max": (oracle.residual_max, "energy"),
        }
        metrics = {k: {"value": float(v), "unit": u}
                   for k, (v, u) in metrics.items()}
    else:
        traced_units = [i for i, on in enumerate(traced) if on]
        overhead = statistics.median(units[i].norm
                                     for i in traced_units) / wall - 1.0
        blowups = statistics.median(
            sum(m.outcome == "blowup" for m in u.members) for u in units)
        probes = probe_steps(wl, W.probe_state(units[0]), sampler)
        metrics = per_layer(tracer, traced_units, probes, blowups, overhead,
                            sampler)
        detail["traced_unit_wall_s"] = timing([units[i].norm
                                               for i in traced_units])
        detail["spans"] = len(tracer.spans)
        tracer.write(WORK / f"spans-{wl.name}.csv")
    print("detail: " + json.dumps(detail, default=str))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> int:
    """Run every workload in a fresh process and print its metrics."""
    import workloads as W
    results = {}
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                             text=True)
        results[name] = json.loads(out.stdout.splitlines()[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:18} {metric:42} {m['value']:<14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build the inputs, then exit")
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args, start)
    setup_program()
    import workloads as W
    if args.workload == "all":
        return run_all(args)
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(W.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

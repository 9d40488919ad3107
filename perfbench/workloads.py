"""Workload definitions, seeded inputs, one timed unit of work per workload,
and the output oracle.

Every workload uses the reference material rho = mu = 1, alpha = 2,
beta = gamma = 1 on L = 1, nx = 201, dt = 1e-3, with sine-mode initial data.
A workload is a fixed list of strata; each stratum is one member amplitude.
The seed picks, per stratum, one of five candidates centre * (1 + k * notch),
k = -2..2.  Candidates stay within one fate class, so the set of outcomes is
the same for every seed, and each candidate has an entry in reference.json,
recorded from the program at the commit that added the benchmark.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import piezowave as pw
from piezowave import cli

MATERIAL = dict(rho=1.0, alpha=2.0, beta=1.0, gamma=1.0, mu=1.0)
L, NX, DT = 1.0, 201, 1e-3
NOTCHES = (-2, -1, 0, 1, 2)
# residual_max may exceed the largest residual of the reference pool by this
# factor: 4 is what doubling dt costs a second-order scheme.
RESIDUAL_FACTOR = 4.0
# G = -Etot may dip by this much between records (the AC-5 tolerance).
G_TOL = 1e-8
# tmax_bound and omega must match the reference to this relative tolerance.
VALUE_RTOL = 1e-6
# One sweep worker, see sweep-midpoint-m1 below.
SWEEP_WORKERS = 1


@dataclass(frozen=True)
class Stratum:
    centre: float
    notch: float          # relative step between candidates


@dataclass(frozen=True)
class Workload:
    name: str
    exps: tuple           # (m1, m2, n1, n2)
    scheme: str
    t_end: float
    record_every: int
    p0_ratio: float       # p0 = p0_ratio * v0 (library workloads)
    strata: tuple
    unit_s: float         # nominal seconds per unit; sets the unit count
    well: bool = False    # well_report + classify_initial per unit
    sweep: bool = False   # in-process `piezowave sweep`

    def amplitudes(self, seed: int) -> list:
        rng = random.Random(f"{self.name}/{seed}")
        return [s.centre * (1.0 + s.notch * rng.choice(NOTCHES))
                for s in self.strata]

    def pool(self) -> list:
        return [s.centre * (1.0 + s.notch * k)
                for s in self.strata for k in NOTCHES]

    def step_config(self) -> pw.StepConfig:
        return pw.StepConfig(dt=DT, scheme=self.scheme)


def _strata(*centres, notch=0.0025):
    return tuple(Stratum(c, notch) for c in centres)


WORKLOADS = {w.name: w for w in (
    # One AC-4b-like run: Newton damping is about half of every step.
    Workload("decay-m3", (3, 3, 3, 3), "semi-implicit", t_end=2.0,
             record_every=200, p0_ratio=0.6, strata=_strata(0.2), unit_s=0.65),
    # AC-6 family, v0 = a, p0 = 0.9a.  Strata: global-predicted,
    # indeterminate that completes, indeterminate blow-up with E0 > M, the
    # {S < 0, 0 <= E0 < M} window (narrow notch: the window is about 0.005
    # wide in a), negative-energy blow-up.  Amplitudes whose fate is decided
    # near t_end (1.1 <= a <= 1.8) are left out, because a run cut just
    # before blow-up "completes" with a residual of order 1e5.
    Workload("ensemble-m2", (2, 2, 3, 3), "semi-implicit", t_end=2.0,
             record_every=20, p0_ratio=0.9,
             strata=_strata(0.1, 0.85, 1.9) + (Stratum(1.9995, 2.5e-4),)
             + _strata(2.35), unit_s=3.5, well=True),
    # CLI sweep over initial.v0 with p0 = 0: five positive-energy members
    # that complete, three negative-energy members that blow up.  One
    # worker: with two, the workers' cores change speed independently of
    # each other and of the calibration samples, which run on one core.
    Workload("sweep-midpoint-m1", (1, 1, 2, 2), "implicit-midpoint",
             t_end=2.0, record_every=10, p0_ratio=0.0,
             strata=_strata(0.05, 0.2, 0.5, 1.0, 2.0, 36.0, 40.0, 45.0),
             unit_s=6.0, sweep=True),
)}


def key(amplitude: float) -> str:
    return repr(float(amplitude))


def problem():
    """(params, grid) of the reference configuration."""
    return pw.make_params(**MATERIAL), pw.Grid1D(L, NX)


def initial_state(wl: Workload, grid, amplitude: float):
    return pw.state_from_modes(grid, [amplitude], [wl.p0_ratio * amplitude],
                               [0.0], [0.0])


SWEEP_INI = """\
[material]
rho = {rho!r}
alpha = {alpha!r}
beta = {beta!r}
gamma = {gamma!r}
mu = {mu!r}

[exponents]
m1 = {m1!r}
m2 = {m2!r}
n1 = {n1!r}
n2 = {n2!r}

[grid]
L = {L!r}
nx = {nx}

[integrator]
dt = {dt!r}
scheme = {scheme}

[initial]
v0 = 0.1
p0 = 0.0
v1 = 0.0
p1 = 0.0

[run]
t_end = {t_end!r}
record_every = {record_every}
seed = {{seed}}

[output]
outdir = {{outdir}}

[fit]
model = exp

[sweep]
max_parallel = {SWEEP_WORKERS}

[sweep.axes]
initial.v0 = {axis}
"""


def build_inputs(wl: Workload, amplitudes: list):
    """The program's inputs: initial states, or a sweep INI template whose
    run seed and output directory are filled in per unit."""
    if wl.sweep:
        m1, m2, n1, n2 = (float(e) for e in wl.exps)
        return SWEEP_INI.format(
            **MATERIAL, m1=m1, m2=m2, n1=n1, n2=n2, L=L, nx=NX, dt=DT,
            scheme=wl.scheme, t_end=wl.t_end, record_every=wl.record_every,
            SWEEP_WORKERS=SWEEP_WORKERS,
            axis="; ".join(repr(a) for a in amplitudes))
    _, grid = problem()
    return [initial_state(wl, grid, a) for a in amplitudes]


@dataclass
class Member:
    amplitude: float
    classification: object = None
    outcome: object = None
    t_detect: object = None
    tmax_bound: object = None
    omega: object = None
    trajectory: object = None
    error: object = None


@dataclass
class Unit:
    members: list
    steps: int
    wall: float = 0.0     # raw seconds, set by the runner
    norm: float = 0.0     # seconds at the reference host speed


# ---------------------------------------------------------------------------
# one unit of work: everything a user pays per solution

def run_unit(wl: Workload, amplitudes: list, inputs, rep: int,
             workdir: Path) -> Unit:
    if wl.sweep:
        return _run_sweep_unit(wl, amplitudes, inputs, rep, workdir)
    return _run_library_unit(wl, amplitudes, inputs, rep)


def _run_library_unit(wl, amplitudes, states, rep) -> Unit:
    params, grid = problem()
    exps = pw.validate_exponents(*wl.exps)
    cfg = wl.step_config()
    members = [Member(a) for a in amplitudes]
    report = None
    if wl.well:
        # each unit gets its own well seed, so a cache keyed on the
        # arguments is cold at the start of every unit, as in a fresh process
        report = pw.well_report(params, exps, grid, seed=rep)
    for member, state0 in zip(members, states):
        try:
            if report is not None:
                member.classification = pw.classify_initial(
                    state0, report, params, exps, grid)
            traj = pw.simulate(state0, params, exps, grid, cfg, wl.t_end,
                               wl.record_every)
        except Exception:       # a member that raises is a failed member
            member.error = traceback.format_exc(limit=3)
        else:
            member.trajectory = traj
            member.outcome, member.t_detect = traj.outcome, traj.t_detect
    return Unit(members, _steps(wl, members))


def _run_sweep_unit(wl, amplitudes, ini_template, rep, workdir) -> Unit:
    outdir = workdir / "out"
    path = workdir / "sweep.cfg"
    path.write_text(ini_template.format(seed=rep, outdir=outdir),
                    encoding="utf-8")
    sweep_csv = outdir / "sweep.csv"
    if sweep_csv.exists():
        sweep_csv.unlink()
    # Pass-through wrapper at the member boundary: it keeps each member's
    # trajectory for the oracle.
    run_one = cli.run_one
    results = {}

    def member(cfg, *args, **kwargs):
        result = run_one(cfg, *args, **kwargs)
        results[cfg.v0[0]] = result
        return result

    cli.run_one = member
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", str(path)])
    finally:
        cli.run_one = run_one
    members = _parse_sweep_csv(sweep_csv, amplitudes) if code == 0 else \
        [Member(a, error=f"sweep exit code {code}") for a in amplitudes]
    for m in members:
        if m.amplitude in results:
            m.trajectory = results[m.amplitude]["trajectory"]
    return Unit(members, _steps(wl, members))


def _float_or_none(text: str):
    return float(text) if text.strip() else None


def _parse_axis(text: str) -> float:
    """Axis cell: '0.05', '%.17g' or the tuple repr '(0.05,)'."""
    return float(text.strip().strip("()").rstrip(",").split(",")[0])


def _parse_sweep_csv(path: Path, amplitudes: list) -> list:
    """sweep.csv rows by parsed value, not by bytes."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_amp = {}
    for row in rows:
        by_amp[_parse_axis(row["initial.v0"])] = row
    members = []
    for a in amplitudes:
        row = by_amp.get(a)
        if row is None:
            members.append(Member(a, error="no sweep.csv row"))
            continue
        if row["outcome"].startswith("error"):
            members.append(Member(a, error=row["outcome"]))
            continue
        members.append(Member(
            a, classification=row["classification"] or None,
            outcome=row["outcome"], t_detect=_float_or_none(row["t_detect"]),
            tmax_bound=_float_or_none(row["tmax_bound"]),
            omega=_float_or_none(row["omega"])))
    if len(rows) != len(amplitudes):
        for m in members:
            m.error = m.error or f"sweep.csv has {len(rows)} rows"
    return members


def _steps(wl: Workload, members: list) -> int:
    """Time steps advanced, summed over members."""
    total = 0
    for m in members:
        if m.outcome == "blowup" and m.t_detect is not None:
            total += round(m.t_detect / DT)
        elif m.outcome == "completed":
            total += round(wl.t_end / DT)
    return total


# ---------------------------------------------------------------------------
# oracle

def residual_of(traj) -> float:
    """Largest |Etot + damping_cum - Etot(0)| over a trajectory's records."""
    return max(r.residual for r in traj.records)


def member_facts(wl: Workload, amplitude: float) -> dict:
    """E0 and S of a member's initial data, computed by the benchmark."""
    params, grid = problem()
    exps = pw.validate_exponents(*wl.exps)
    st0 = initial_state(wl, grid, amplitude)
    return {"E0": pw.total_energy(st0, params, exps, grid),
            "S": pw.sign_functional(st0, params, exps, grid)}


def check_member(wl: Workload, member: Member, ref: dict, facts: dict,
                 m_threshold: float, residual_bound: float) -> list:
    """Violations of the paper's invariants and of the recorded reference."""
    if member.error is not None:
        return [f"error: {member.error.strip().splitlines()[-1]}"]
    problems = []
    if member.classification != ref["classification"]:
        problems.append(f"classification {member.classification!r} != "
                        f"reference {ref['classification']!r}")
    if member.outcome != ref["outcome"]:
        problems.append(f"outcome {member.outcome!r} != reference "
                        f"{ref['outcome']!r}")
    if (member.t_detect is None) != (ref["t_detect"] is None) or (
            member.t_detect is not None
            and abs(member.t_detect - ref["t_detect"]) > DT):
        problems.append(f"t_detect {member.t_detect!r} not within dt of "
                        f"reference {ref['t_detect']!r}")
    for name in ("tmax_bound", "omega"):
        got, want = getattr(member, name), ref.get(name)
        if wl.sweep and not _close(got, want):
            problems.append(f"{name} {got!r} != reference {want!r}")
    if facts["S"] < 0.0 and 0.0 <= facts["E0"] < m_threshold \
            and member.outcome != "blowup":
        problems.append("S < 0 and 0 <= E0 < M_threshold but no blow-up")
    if member.classification == "global-predicted" \
            and member.outcome != "completed":
        problems.append("global-predicted member did not complete")
    traj = member.trajectory
    if traj is None:
        problems.append("no trajectory")
        return problems
    etot = np.array([r.Etot for r in traj.records])
    if member.classification == "global-predicted" and np.any(etot < 0.0):
        problems.append("global-predicted member reached Etot < 0")
    if member.outcome == "completed" and residual_of(traj) > residual_bound:
        problems.append(f"residual {residual_of(traj):.3g} > bound "
                        f"{residual_bound:.3g}")
    if etot[0] < 0.0 and np.any(np.diff(-etot) < -G_TOL):
        problems.append("G = -Etot decreased on a negative-energy member")
    return problems


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isclose(got, want, rel_tol=VALUE_RTOL)


def reference_entry(member: Member) -> dict:
    return {"classification": member.classification,
            "outcome": member.outcome, "t_detect": member.t_detect,
            "tmax_bound": member.tmax_bound, "omega": member.omega,
            "residual": residual_of(member.trajectory)}


def m_threshold_of(wl: Workload) -> float:
    params, grid = problem()
    return pw.well_report(params, pw.validate_exponents(*wl.exps),
                          grid).M_threshold


def probe_state(unit: Unit):
    """Final state of the completed member with the largest amplitude."""
    done = [m for m in unit.members
            if m.outcome == "completed" and m.trajectory is not None]
    return max(done, key=lambda m: m.amplitude).trajectory.final_state


def step_variants(wl: Workload) -> dict:
    cfg = wl.step_config()
    return {"full": cfg, "undamped": replace(cfg, damping_on=False),
            "sourceless": replace(cfg, sources_on=False)}

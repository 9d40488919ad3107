"""A/B of the midpoint solve, a damping half-step, the per-step norms,
whole steps, the well analysis and a unit of the `ensemble-m2` workload,
between two source trees, in interleaved rounds of one child process per
case and tree.

    taskset -c 1 python3 tools/inprocess_ab.py PARENT_SRC CHANGE_SRC [ROUNDS]

Cases, on nx = 201, dt = 1e-3 and the reference material:

  * `solve-B<b>`: one `Stepper._solve` call on a (b, 2, nx) right-hand
    side, the shape a batch of b members passes, in us, the minimum of
    2000 calls per round (one member steps as (4, nx) and solves (2, nx),
    which takes the same (2b, nx) row path as b = 1 here); the solve may
    overwrite its argument, so each call gets a fresh copy, made outside
    the timed call.  The right-hand side is random but zero at the clamped
    node x = 0, as every state of the model is there, so that two trees
    that differ only in what the interior reads of x = 0 give one result;
  * `half-m2` and `half-m3`: one damping half-step, the map that
    `Stepper._damp` builds for exponents m = (2, 2) or (3, 3), on one
    member's (4, nx) state (v0 = 0.1, p0 = 0.06, v1 = 0.1, p1 = -0.1), in
    us, the minimum of 2000 calls per round; the half-step writes into its
    argument, so each call gets a fresh copy, made outside the timed call;
  * `norms-B1` and `norms-B8`: one `integrator._step_norms` call, damping
    on, on a (b, 4, nx) state with exponents (3, 3, 3, 3), in us, the
    minimum of 2000 calls per round.  Each side is called with its own
    signature: (y, grid, params, power), the damping norms' `row_power`
    map bound once outside the timed call, as `simulate` binds it, or the
    older (y, grid, params, exps, damping_on), which builds it per call;
  * `norms-m2-B1`: the same on one member with the `ensemble-m2`
    workload's exponents (2, 2, 3, 3), whose damping norm is |x|^3, three
    numpy passes, where m = 3's |x|^4 takes two;
  * `records-B8`: one `diagnostics._records` call on an (8, 4, nx) state
    with exponents (2, 2, 3, 3), in us, the minimum of 2000 calls per
    round, each side with its own signature: the source norms'
    `row_power` map bound once outside the timed call, or built inside;
  * `step-m1-3`, `step-m3` and `step-m2`: `simulate` per step with
    exponents (1, 3, 2, 3), (3, 3, 3, 3) or (2, 2, 3, 3), v0 = 0.2,
    p0 = 0.12, at rest, semi-implicit, 300 steps, record_every = 200, in
    us: a mixed damping step, whose m = 1 half-step is folded into the
    maps on the v row and whose m = 3 closed form maps the p row alone, a
    one-member step like the `decay-m3` workload's, and one of the
    `ensemble-m2` workload's shape;
  * `step-m2-3`: the same with exponents (2, 3, 3, 3) on the asymmetric
    material (rho, alpha, beta, gamma, mu) = (2.3, 5, 0.7, 1.9, 0.4): a
    mixed damping step that takes the m = 2 and m = 3 closed forms row
    by row;
  * `step-newton-m4` and `step-newton-m2.5`: the same with exponents
    (4, 4, 3, 3) and (2.5, 2.5, 3, 3), whose damping roots take the
    whole-array Newton solve;
  * `stepper-m3`: one direct `Stepper.step` call on one member, (4, nx),
    with exponents (3, 3, 3, 3), v0 = 0.2, p0 = 0.12, v1 = 0.2,
    p1 = -0.2, in us, the minimum of 2000 calls per round: the call that
    perfbench's step probe times, which checks the state's shape and
    enters numpy's error state itself, as `simulate`'s steps do not;
  * `sweep-mid`: `simulate` per step of one batch of the 8 members of the
    `sweep-midpoint-m1` workload (exponents (1, 1, 2, 2), implicit-midpoint,
    v0 = 0.05, 0.2, 0.5, 1, 2, 36, 40, 45, p0 = 0, at rest), to t = 0.5,
    record_every = 10, in us: the three largest blow up before t = 0.5, so
    the batch goes from 8 to 5 members, and until then they take a second
    source iterate on most steps;
  * `sweep-mid-B5`: the same on the workload's five members that complete
    (v0 = 0.05 ... 2), to t = 2, the workload's t_end: the batch that runs
    most of a unit's steps (about 1,560 of 2,000, from t = 0.44 on).  Its
    source iteration settles the five members at the batch-wide test on
    every step after t = 0.418, and only at the per-member test on each of
    the 418 steps before;
  * `step-mid-m1`: `simulate` per step of one member with exponents
    (1, 1, 2, 2), implicit-midpoint, v0 = 0.5, p0 = 0, at rest, 300 steps,
    record_every = 200, in us: a one-member source iteration;
  * `blowup-m2`: `simulate` per step taken of one member of the
    `ensemble-m2` workload's shape (exponents (2, 2, 3, 3), semi-implicit,
    v0 = 2.35, p0 = 0.9 v0, at rest, t_end = 2, record_every = 20), which
    blows up at t = 1.565, in us: the steps taken are those to t_detect,
    so a step computed past it and dropped counts as cost;
  * `blowup-newton`: the same for one member with Newton damping: the
    asymmetric material (rho, alpha, beta, gamma, mu) = (2.3, 5, 0.7,
    1.9, 0.4), nx = 81, exponents (4, 4, 2, 3), semi-implicit, v0 = 0.3,
    p0 = 30, v1 = 0.1, p1 = -0.05, t_end = 0.5, record_every = 10, which
    blows up at t = 0.1 and whose dropped steps past it meet velocities
    past 1e100;
  * `well-m2`: one `well_report` call with exponents (2, 2, 3, 3), in us:
    the well analysis that the `ensemble-m2` workload runs before its
    members;
  * `ensemble-m2`: one unit of the `ensemble-m2` workload, in us per step
    taken: `well_report`, then `classify_initial` and `simulate` for each
    of its five stratum centres v0 = 0.1, 0.85, 1.9, 1.9995 and 2.35
    (exponents (2, 2, 3, 3), semi-implicit, p0 = 0.9 v0, at rest,
    t_end = 2, record_every = 20), the steps taken being those to t_end
    or to t_detect, as perfbench counts them.

Each round starts, for each case in turn, one child process per tree,
the side that goes first alternating from round to round.  A child puts
its tree's `src` first on its path and imports piezowave from there
alone, builds its one case, runs it once to warm it up, then times it
once and sends its time and result array back as one `.npz` on its
standard output.  No two trees and no two cases share a process, so
neither tree's imports, allocations or caches, nor the cases timed
before, shape a case's timing: a case whose code a change does not touch
runs on the same heap on both sides.  A change in what `simulate`
allocates can still move a case through glibc's dynamic mmap and trim
thresholds (page faults) where perfbench's processes, which run many
units, do not.  BLAS runs on one thread, as in perfbench (the thread
count changes the cost of numpy's small operations).  Each child
imports numpy and piezowave afresh, so 20 rounds of the 24 cases start
960 children and take about 5 minutes on one core (260-303 s on a 2-core
Xeon sandbox, Python 3.11, numpy 2.4).  Per case, the table gives:

  * `parent_us`, `change_us`: each side's median over rounds, and
    `parent_q_us`, `change_q_us`: its first and third quartiles;
  * `ratio`: the ratio of the two medians, as in earlier tables;
  * `paired_ratio`: the median of the per-round ratios change / parent,
    and `ci95`: a distribution-free interval for it of at least 95%
    coverage, the order statistics of ranks k and n + 1 - k of the n
    paired ratios, with k the largest rank whose sign-test tail
    P(Binomial(n, 1/2) < k) is at most 2.5% (ranks 6 and 15 at 20
    rounds; null under 6 rounds);
  * `won`: the rounds in which the change took less time than the
    parent, ties counting for neither;
  * `verdict`: "faster" or "slower" only when the whole interval lies
    below or above 1 and `paired_ratio` lies outside NO_CHANGE_BAND
    (0.98 to 1.02), else "no change": a difference under 2% gives no
    verdict, whatever its interval;
  * `max_rel_diff`: the largest difference of the two sides' solve
    results, norms, final states or well reports (from the first round)
    relative to their largest entry, so a change that moves results only
    at roundoff shows as such;
  * `parent_minflt`, `change_minflt`: each side's median over rounds of
    the minor page faults (`ru_minflt`) its child took during the timed
    run of the case, so a verdict that comes with many more faults on one
    side comes from the heap state (see above), not the arithmetic.

The same tree on both sides (`... src src`) gives the host's floor: every
case should read "no change".  With 24 cases, a claimed verdict should
also repeat across runs.  Prints one JSON object.
"""
import inspect
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from functools import partial

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
import numpy as np  # noqa: E402

# paired ratios change / parent inside this band read "no change"
NO_CHANGE_BAND = (0.98, 1.02)
BATCHES = (1, 2, 5, 8)
CALLS, STEPS, V0 = 2000, 300, 0.2
SWEEP_V0 = (0.05, 0.2, 0.5, 1.0, 2.0, 36.0, 40.0, 45.0)
COMPLETING_V0 = SWEEP_V0[:5]
ENSEMBLE_V0 = (0.1, 0.85, 1.9, 1.9995, 2.35)


def best_of_calls(call, arg):
    """(min us of CALLS calls of call on a fresh copy of arg, its result)."""
    best = float("inf")
    for _ in range(CALLS):
        fresh = arg.copy()
        t0 = time.perf_counter()
        call(fresh)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6, np.asarray(call(arg.copy()))


def solve_case(pw, b):
    grid = pw.Grid1D(1.0, 201)
    stepper = pw.Stepper(grid, pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0),
                         pw.StepConfig(dt=1e-3))
    rhs = np.random.default_rng(b).standard_normal((b, 2, grid.nx))
    rhs[..., 0] = 0.0
    return lambda: best_of_calls(stepper._solve, rhs)


def half_case(pw, m):
    grid = pw.Grid1D(1.0, 201)
    stepper = pw.Stepper(grid, pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0),
                         pw.StepConfig(dt=1e-3))
    half = stepper._damp({0: m, 1: m})
    return lambda: best_of_calls(lambda y: half(y, {}),
                                 members(pw, grid, 1)[0])


def takes_power(function):
    """Whether function takes a bound `row_power` map, `power`."""
    return "power" in inspect.signature(function).parameters


def members(pw, grid, b):
    """A (b, 4, nx) state of b one-mode members, amplitudes 0.1 ... 0.3."""
    return np.array([pw.state_from_modes(grid, [a], [0.6 * a], [a], [-a]).y
                     for a in np.linspace(0.1, 0.3, b)])


def norms_case(pw, b, exponents=(3.0, 3.0, 3.0, 3.0)):
    grid = pw.Grid1D(1.0, 201)
    params = pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)
    exps = pw.validate_exponents(*exponents)
    norms = pw.integrator._step_norms
    args = ((pw.grid.row_power(exps.m1 + 1.0, exps.m2 + 1.0),)
            if takes_power(norms) else (exps, True))
    return lambda: best_of_calls(lambda y: norms(y, grid, params, *args),
                                 members(pw, grid, b))


def records_case(pw, b):
    grid = pw.Grid1D(1.0, 201)
    params = pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)
    exps = pw.validate_exponents(2.0, 2.0, 3.0, 3.0)
    y = members(pw, grid, b)
    ledger = [(0.0, None, pw.grid.quadratic_form(m[0], m[1], grid, params))
              for m in y]
    records = pw.diagnostics._records
    bound = ((pw.grid.row_power(exps.n1 + 1.0, exps.n2 + 1.0),)
             if takes_power(records) else ())

    def run():
        best = float("inf")
        for _ in range(CALLS):
            t0 = time.perf_counter()
            out = records(y, 0.0, params, exps, grid, ledger, *bound)
            best = min(best, time.perf_counter() - t0)
        return best * 1e6, np.array([[r.E, r.J, r.Etot, r.sign_fn, r.nprime]
                                     for r in out])
    return run


def step_case(pw, exponents, material=(1.0, 2.0, 1.0, 1.0, 1.0),
              scheme="semi-implicit", v0=V0, p0=0.6 * V0):
    grid = pw.Grid1D(1.0, 201)
    params = pw.make_params(*material)
    exps = pw.validate_exponents(*exponents)
    cfg = pw.StepConfig(dt=1e-3, scheme=scheme)
    state = pw.state_from_modes(grid, [v0], [p0], [0.0], [0.0])

    def run():
        t0 = time.perf_counter()
        traj = pw.simulate(state, params, exps, grid, cfg, STEPS * 1e-3, 200)
        return (time.perf_counter() - t0) / STEPS * 1e6, traj.final_state.y
    return run


def stepper_case(pw):
    grid = pw.Grid1D(1.0, 201)
    stepper = pw.Stepper(grid, pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0),
                         pw.StepConfig(dt=1e-3))
    exps = pw.validate_exponents(3.0, 3.0, 3.0, 3.0)
    state = pw.state_from_modes(grid, [V0], [0.6 * V0], [V0], [-V0])

    def run():
        best = float("inf")
        for _ in range(CALLS):
            t0 = time.perf_counter()
            new = stepper.step(state, exps)
            best = min(best, time.perf_counter() - t0)
        return best * 1e6, new.y
    return run


def sweep_case(pw, amplitudes, steps):
    grid = pw.Grid1D(1.0, 201)
    params = pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)
    exps = pw.validate_exponents(1.0, 1.0, 2.0, 2.0)
    cfg = pw.StepConfig(dt=1e-3, scheme="implicit-midpoint")
    state = pw.State.stacked(np.array([
        pw.state_from_modes(grid, [v0], [0.0], [0.0], [0.0]).y
        for v0 in amplitudes]))

    def run():
        t0 = time.perf_counter()
        trajs = pw.simulate(state, params, exps, grid, cfg, steps * 1e-3, 10)
        return ((time.perf_counter() - t0) / steps * 1e6,
                np.array([t.final_state.y for t in trajs]))
    return run


def blowup_case(pw, nx, material, exponents, modes, t_end, record_every):
    grid = pw.Grid1D(1.0, nx)
    params = pw.make_params(*material)
    exps = pw.validate_exponents(*exponents)
    state = pw.state_from_modes(grid, *([c] for c in modes))
    cfg = pw.StepConfig(dt=1e-3)

    def run():
        t0 = time.perf_counter()
        traj = pw.simulate(state, params, exps, grid, cfg, t_end,
                           record_every)
        elapsed = time.perf_counter() - t0
        return (elapsed / round(traj.t_detect / cfg.dt) * 1e6,
                traj.final_state.y)
    return run


def well_case(pw):
    grid = pw.Grid1D(1.0, 201)
    params = pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)
    exps = pw.validate_exponents(2.0, 2.0, 3.0, 3.0)

    def run():
        t0 = time.perf_counter()
        report = pw.well_report(params, exps, grid)
        elapsed = time.perf_counter() - t0
        return elapsed * 1e6, np.array([getattr(report, f) for f in (
            "B1", "B2", "C_hat", "s_star", "Lambda_star", "y0",
            "M_threshold", "poincare_c")])
    return run


def ensemble_case(pw):
    grid = pw.Grid1D(1.0, 201)
    params = pw.make_params(1.0, 2.0, 1.0, 1.0, 1.0)
    exps = pw.validate_exponents(2.0, 2.0, 3.0, 3.0)
    cfg = pw.StepConfig(dt=1e-3)
    states = [pw.state_from_modes(grid, [v0], [0.9 * v0], [0.0], [0.0])
              for v0 in ENSEMBLE_V0]

    def run():
        t0 = time.perf_counter()
        report = pw.well_report(params, exps, grid)
        trajs = []
        for state in states:
            pw.classify_initial(state, report, params, exps, grid)
            trajs.append(pw.simulate(state, params, exps, grid, cfg, 2.0,
                                     20))
        elapsed = time.perf_counter() - t0
        steps = sum(round((2.0 if t.t_detect is None else t.t_detect)
                          / cfg.dt) for t in trajs)
        return (elapsed / steps * 1e6,
                np.array([t.final_state.y for t in trajs]))
    return run


def interval_rank(n):
    """The rank k of the sign-test interval [x_(k), x_(n+1-k)] of n
    sorted samples, the largest with P(Binomial(n, 1/2) < k) <= 2.5%;
    0 when no k qualifies (n < 6)."""
    k, tail = 0, 0.0
    while tail + math.comb(n, k) / 2 ** n <= 0.025:
        tail += math.comb(n, k) / 2 ** n
        k += 1
    return k


def summary(parent, change):
    """The table row of one case's per-round times on the two sides."""
    ratios = sorted(c / p for p, c in zip(parent, change))
    k = interval_rank(len(ratios))
    ci = [ratios[k - 1], ratios[-k]] if k else None
    paired = float(np.median(ratios))
    verdict = ("no change" if ci is None or ci[0] <= 1.0 <= ci[1]
               or NO_CHANGE_BAND[0] <= paired <= NO_CHANGE_BAND[1]
               else "faster" if ci[1] < 1.0 else "slower")
    q = {side: np.percentile(times, [25, 50, 75])
         for side, times in (("parent", parent), ("change", change))}
    return {"parent_us": round(q["parent"][1], 2),
            "parent_q_us": [round(x, 2) for x in q["parent"][::2]],
            "change_us": round(q["change"][1], 2),
            "change_q_us": [round(x, 2) for x in q["change"][::2]],
            "ratio": round(q["change"][1] / q["parent"][1], 3),
            "paired_ratio": round(paired, 3),
            "ci95": ci and [round(x, 4) for x in ci],
            "won": sum(c < p for p, c in zip(parent, change)),
            "verdict": verdict}


def cases(pw) -> dict:
    """Every case of the table on the piezowave module pw, by name, as a
    function that builds it: nothing is built until it is called."""
    return {**{f"solve-B{b}": partial(solve_case, pw, b) for b in BATCHES},
            **{f"half-m{m:g}": partial(half_case, pw, m) for m in (2.0, 3.0)},
            **{f"norms-B{b}": partial(norms_case, pw, b) for b in (1, 8)},
            "norms-m2-B1": partial(norms_case, pw, 1, (2.0, 2.0, 3.0, 3.0)),
            "records-B8": partial(records_case, pw, 8),
            "step-m1-3": partial(step_case, pw, (1.0, 3.0, 2.0, 3.0)),
            "step-m3": partial(step_case, pw, (3.0, 3.0, 3.0, 3.0)),
            "step-m2": partial(step_case, pw, (2.0, 2.0, 3.0, 3.0)),
            "step-m2-3": partial(step_case, pw, (2.0, 3.0, 3.0, 3.0),
                                 (2.3, 5.0, 0.7, 1.9, 0.4)),
            "step-newton-m4": partial(step_case, pw, (4.0, 4.0, 3.0, 3.0)),
            "step-newton-m2.5": partial(step_case, pw, (2.5, 2.5, 3.0, 3.0)),
            "step-mid-m1": partial(step_case, pw, (1.0, 1.0, 2.0, 2.0),
                                   scheme="implicit-midpoint", v0=0.5,
                                   p0=0.0),
            "stepper-m3": partial(stepper_case, pw),
            "sweep-mid": partial(sweep_case, pw, SWEEP_V0, 500),
            "sweep-mid-B5": partial(sweep_case, pw, COMPLETING_V0, 2000),
            "blowup-m2": partial(blowup_case, pw, 201,
                                 (1.0, 2.0, 1.0, 1.0, 1.0),
                                 (2.0, 2.0, 3.0, 3.0),
                                 (2.35, 0.9 * 2.35, 0.0, 0.0), 2.0, 20),
            "blowup-newton": partial(
                blowup_case, pw, 81, (2.3, 5.0, 0.7, 1.9, 0.4),
                (4.0, 4.0, 2.0, 3.0), (0.3, 30.0, 0.1, -0.05), 0.5, 10),
            "well-m2": partial(well_case, pw),
            "ensemble-m2": partial(ensemble_case, pw)}


def child(src, name):
    """One side of one case in one round: piezowave imported from src
    alone, the case built, run once to warm up and then timed once; writes
    its time ("t"), the minor page faults of the timed run ("f") and its
    result array ("y") as one .npz to standard output."""
    sys.path.insert(0, src)
    import piezowave
    run = cases(piezowave)[name]()
    run()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t, y = run()
    f = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    buf = io.BytesIO()
    np.savez(buf, t=t, f=f, y=y)
    sys.stdout.buffer.write(buf.getvalue())


def one_side(src, name) -> tuple:
    """(us, minor faults, result) of case name, from a child for the tree
    at src."""
    proc = subprocess.run([sys.executable, __file__, "--child", src, name],
                          check=True, stdout=subprocess.PIPE)
    with np.load(io.BytesIO(proc.stdout)) as data:
        return float(data["t"]), int(data["f"]), data["y"]


def main(parent_src, change_src, rounds):
    sides = {"parent": parent_src, "change": change_src}
    names = list(cases(None))
    times = {side: {name: [] for name in names} for side in sides}
    faults = {side: {name: [] for name in names} for side in sides}
    results = {}
    for k in range(rounds):
        for name in names:
            for side in list(sides) if k % 2 == 0 else list(sides)[::-1]:
                us, minflt, result = one_side(sides[side], name)
                times[side][name].append(us)
                faults[side][name].append(minflt)
                results.setdefault((side, name), result)
    table = {}
    for name in names:
        a, b = results["parent", name], results["change", name]
        table[name] = {**summary(times["parent"][name],
                                 times["change"][name]),
                       "max_rel_diff": float(np.abs(a - b).max()
                                             / np.abs(a).max()),
                       **{side + "_minflt": int(np.median(faults[side][name]))
                          for side in sides}}
    k = interval_rank(rounds)
    print(json.dumps({"rounds": rounds,
                      "ci95_ranks": [k, rounds + 1 - k] if k else None,
                      "no_change_band": list(NO_CHANGE_BAND),
                      "table": table}, indent=1))


if __name__ == "__main__":
    if sys.argv[1] == "--child":
        child(sys.argv[2], sys.argv[3])
    else:
        main(sys.argv[1], sys.argv[2],
             int(sys.argv[3]) if len(sys.argv) > 3 else 20)

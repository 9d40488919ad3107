"""Compare the deterministic outputs of two revisions byte for byte, or
number by number to a tolerance.

    python3 tools/outputs_identical.py REV_A REV_B
    python3 tools/outputs_identical.py REV_A REV_B --rtol 1e-6 --atol 1e-9

Each revision's `src/` and `demos/` are exported with `git archive` into a
temporary directory.  Both exports then run the same fixed cases:

  * `simulate`, `classify` and `bounds` on four run configs: the README
    example (m = 2, n = 3, nx = 201, t_end = 10), the `BASE_CFG` of
    `tests/test_harness.py` (m = 1, n = 2, nx = 81), that config with
    NaN initial data, and an implicit-midpoint run with mixed exponents
    (m = (1, 3), n = (2, 3)) on the asymmetric material
    (rho, alpha, beta, gamma, mu) = (2.3, 5, 0.7, 1.9, 0.4), which runs
    the source iteration, the row-by-row damping and source branches and
    rho != mu;
  * `fit --model exp|poly|log` on each `energy.csv` that `simulate` wrote;
  * `sweep` on the AC-9 sweep config of `tests/test_acceptance.py`; on
    the `BASE_CFG` harness config with `[fit] model = exp` and the axis
    `grid.nx = 41, 2`, whose second member is invalid: its rows print the
    `omega` column of a fit and an `error:` row; and on that config with
    the implicit-midpoint scheme and the axes `grid.nx = 41, 81` and
    `initial.v0 = 0.05; 20.0; 40.0; 100.0`, whose members run as two
    batches of four that each lose two members to blow-up mid-run; and
    on the mixed-exponent implicit-midpoint config with the axes
    `integrator.damping = true, false` and `initial.v0 = 0.05; 80.0`,
    two batches of two that each lose one member to blow-up, which run
    the row-by-row damping norms and the undamped step inside a batch;
  * the three scripts in `demos/`.

Every output file, every stdout and every exit code is compared with the
other revision's, and one line per item says "identical" or "differs".
Under each text file that differs, the first line that differs is printed
from each side, with its line number, so the size of a difference shows
without rerunning anything.  The exit status is 0 when everything is
identical and 1 otherwise.  Standard library only.

With `--rtol` or `--atol`, a file that differs in bytes is parsed and
passes as "close" when every number agrees to
|a - b| <= atol + rtol * max(|a|, |b|) and everything else is identical:
CSV headers and non-numeric cells, JSON keys, strings, booleans and nulls,
and the text of stdout between its numbers.  Exit codes and every
`t_detect` (a CSV column, a JSON key, or a stdout number after
"t_detect =") stay exact.  Each close or differing file reports the
pair of numbers that used the largest share of its tolerance, where it
is, and its absolute and relative difference.  The exit status is 0 when
every item is identical or close.
"""
from __future__ import annotations

import argparse
import csv
import filecmp
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

MATERIAL = """
[material]
rho = 1.0
alpha = 2.0
beta = 1.0
gamma = 1.0
mu = 1.0
"""

README_CFG = MATERIAL + """
[exponents]
m1 = 2.0
m2 = 2.0
n1 = 3.0
n2 = 3.0

[grid]
L = 1.0
nx = 201

[integrator]
dt = 1e-3
scheme = semi-implicit

[initial]
v0 = 0.05
p0 = 0.03
v1 = 0.0
p1 = 0.0

[run]
t_end = 10.0
record_every = 10
seed = 0

[output]
outdir = out
"""

HARNESS_CFG = MATERIAL + """
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
v0 = {v0}
p0 = 0.03
v1 = 0.0
p1 = 0.0

[run]
t_end = 0.5
record_every = 10
seed = 0

[output]
outdir = out
"""

MIXED_CFG = """
[material]
rho = 2.3
alpha = 5.0
beta = 0.7
gamma = 1.9
mu = 0.4

[exponents]
m1 = 1.0
m2 = 3.0
n1 = 2.0
n2 = 3.0

[grid]
L = 1.0
nx = 81

[integrator]
dt = 1e-3
scheme = implicit-midpoint

[initial]
v0 = 0.3
p0 = 0.2
v1 = 0.1
p1 = -0.05

[run]
t_end = 0.5
record_every = 10
seed = 0

[output]
outdir = out
"""

AC9_SWEEP_CFG = MATERIAL + """
[exponents]
m1 = 2.0
m2 = 2.0
n1 = 3.0
n2 = 3.0

[grid]
L = 1.0
nx = 101

[integrator]
dt = 1e-3

[initial]
v0 = 0.05
p0 = 0.0
v1 = 0.0
p1 = 0.0

[run]
t_end = 1.0
record_every = 50
seed = 0

[output]
outdir = out

[sweep]
max_parallel = 8

[sweep.axes]
initial.v0 = 0.05; 0.5; 5.0
"""

FIT_ERROR_SWEEP_CFG = HARNESS_CFG.format(v0="0.05") + """
[fit]
model = exp

[sweep.axes]
grid.nx = 41, 2
"""

# implicit-midpoint members on two grids: by grid, two batches of four,
# each with two members that complete and two that blow up at different
# steps, so that each batch shrinks twice while the rest go on
BATCH_SWEEP_CFG = HARNESS_CFG.format(v0="0.05").replace(
    "semi-implicit", "implicit-midpoint") + """
[fit]
model = exp

[sweep.axes]
grid.nx = 41, 81
initial.v0 = 0.05; 20.0; 40.0; 100.0
"""

# the mixed-exponent implicit-midpoint run with and without damping: two
# batches of two, each losing its v0 = 80 member to blow-up mid-run
MIXED_SWEEP_CFG = MIXED_CFG + """
[sweep.axes]
integrator.damping = true, false
initial.v0 = 0.05; 80.0
"""

RUN_CONFIGS = {
    "readme": README_CFG,
    "harness": HARNESS_CFG.format(v0="0.05"),
    "nan-v0": HARNESS_CFG.format(v0="nan"),
    "mixed-midpoint": MIXED_CFG,
}
DEMOS = ("decay_and_fit.py", "well_classification.py", "blowup_bound.py")
CLI = ("import sys; from piezowave.cli import main; "
       "sys.exit(main(sys.argv[1:]))")


def export(rev: str, dest: Path) -> None:
    """Unpack `src/` and `demos/` of a revision into dest."""
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar",
                          rev, "src", "demos"],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run(tree: Path, cwd: Path, name: str, argv: list) -> None:
    """Run argv in cwd against tree's src/, keeping stdout and exit code."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
    (cwd / f"{name}.stdout").write_bytes(proc.stdout)
    (cwd / f"{name}.exit").write_text(f"{proc.returncode}\n")


def produce(tree: Path, work: Path) -> None:
    """Run every case of the comparison with the code in tree."""
    cli = [sys.executable, "-c", CLI]
    for case, text in RUN_CONFIGS.items():
        for command in ("simulate", "classify", "bounds"):
            cwd = work / case / command
            cwd.mkdir(parents=True)
            (cwd / "run.cfg").write_text(text, encoding="utf-8")
            run(tree, cwd, command, cli + [command, "run.cfg"])
        sim = work / case / "simulate"
        if (sim / "out" / "energy.csv").exists():
            for model in ("exp", "poly", "log"):
                run(tree, sim, f"fit-{model}",
                    cli + ["fit", "out/energy.csv", "--model", model])
    for case, text in (("ac9", AC9_SWEEP_CFG),
                       ("fit-error", FIT_ERROR_SWEEP_CFG),
                       ("batch-split", BATCH_SWEEP_CFG),
                       ("mixed-damping", MIXED_SWEEP_CFG)):
        cwd = work / case / "sweep"
        cwd.mkdir(parents=True)
        (cwd / "sweep.cfg").write_text(text, encoding="utf-8")
        run(tree, cwd, "sweep", cli + ["sweep", "sweep.cfg"])
    for demo in DEMOS:
        cwd = work / "demos" / demo
        cwd.mkdir(parents=True)
        run(tree, cwd, "demo", [sys.executable, str(tree / "demos" / demo)])


def outputs(root: Path) -> set:
    """Paths of everything the cases wrote, leaving out the input configs."""
    return {p.relative_to(root) for p in root.rglob("*")
            if p.is_file() and p.suffix != ".cfg"}


def first_difference(a: Path, b: Path):
    """The first differing line of two text files, as (line number, line
    of a, line of b), with "<end of file>" past the end of the shorter
    one; None when either file is missing or not UTF-8 text."""
    try:
        lines_a, lines_b = (p.read_text(encoding="utf-8").splitlines()
                            for p in (a, b))
    except (OSError, UnicodeDecodeError):
        return None
    end = ["<end of file>"]
    for number, (line_a, line_b) in enumerate(
            zip(lines_a + end, lines_b + end), start=1):
        if line_a != line_b:
            return number, line_a, line_b
    return None


# numbers as the outputs write them (%.17g, repr, "nan", "inf"); the group
# makes re.split keep them, at the odd indices
NUMBER = re.compile(r"([-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan))")
# compared exactly in tolerance mode too: event times are whole steps k*dt
EXACT_KEYS = ("t_detect",)


class Tolerance:
    """|a - b| <= atol + rtol * max(|a|, |b|) on numbers, keeping the pair
    that used the largest share of its tolerance and where it was."""

    def __init__(self, rtol: float, atol: float):
        self.rtol, self.atol = rtol, atol
        self.worst = (0.0, None)

    def numbers(self, a: float, b: float, where: str) -> bool:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return True
        diff, size = abs(a - b), max(abs(a), abs(b))
        bound = self.atol + self.rtol * size
        share = diff / bound if bound > 0 else math.inf
        if not share <= self.worst[0]:
            rel = diff / size if size > 0 else math.inf
            self.worst = (share, f"{where}: {a!r} vs {b!r} (abs {diff:.3g}, "
                                 f"rel {rel:.3g})")
        return diff <= bound


def close_text(text_a: str, text_b: str, tol: Tolerance) -> bool:
    """Line by line: the text between numbers identical, the numbers close,
    and a number right after "t_detect =" identical."""
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    if len(lines_a) != len(lines_b):
        return False
    ok = True
    for number, (line_a, line_b) in enumerate(zip(lines_a, lines_b), 1):
        parts_a, parts_b = NUMBER.split(line_a), NUMBER.split(line_b)
        if len(parts_a) != len(parts_b):
            return False
        for i, (x, y) in enumerate(zip(parts_a, parts_b)):
            if i % 2 == 0:
                ok = ok and x == y
            elif parts_a[i - 1].rstrip(" =").endswith(EXACT_KEYS):
                ok = ok and float(x) == float(y)
            else:
                ok = tol.numbers(float(x), float(y), f"line {number}") \
                    and ok
    return ok


def close_csv(text_a: str, text_b: str, tol: Tolerance) -> bool:
    """Same header and shape; cells identical or both numbers and close,
    except the exact columns."""
    rows_a = list(csv.reader(io.StringIO(text_a)))
    rows_b = list(csv.reader(io.StringIO(text_b)))
    if len(rows_a) != len(rows_b) or not rows_a or rows_a[0] != rows_b[0]:
        return False
    header, ok = rows_a[0], True
    for number, (row_a, row_b) in enumerate(zip(rows_a, rows_b), 1):
        if len(row_a) != len(row_b):
            return False
        for name, x, y in zip(header, row_a, row_b):
            if x == y:
                continue
            try:
                fx, fy = float(x), float(y)
            except ValueError:
                return False
            if name in EXACT_KEYS:
                ok = ok and fx == fy
            else:
                ok = tol.numbers(fx, fy, f"line {number}, {name}") and ok
    return ok


def close_json(a, b, tol: Tolerance, key: str = "") -> bool:
    """Same structure and keys; numbers close except the exact keys, and
    every other value identical."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            [close_json(a[k], b[k], tol, k) for k in a])
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(
            [close_json(x, y, tol, key) for x, y in zip(a, b)])
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                  for x in (a, b))
    if numbers and key not in EXACT_KEYS:
        return tol.numbers(float(a), float(b), key)
    return a == b and (numbers or type(a) is type(b))


def close(a: Path, b: Path, tol: Tolerance) -> bool:
    """Tolerance comparison of two outputs, by file type; exit codes and
    anything that is not UTF-8 text must be identical."""
    if a.suffix == ".exit":
        return False
    try:
        text_a, text_b = (p.read_text(encoding="utf-8") for p in (a, b))
        if a.suffix == ".json":
            return close_json(json.loads(text_a), json.loads(text_b), tol)
    except (OSError, ValueError):    # not UTF-8, or not JSON
        return False
    if a.suffix == ".csv":
        return close_csv(text_a, text_b, tol)
    return close_text(text_a, text_b, tol)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="compare numbers to this relative tolerance")
    parser.add_argument("--atol", type=float, default=0.0,
                        help="compare numbers to this absolute tolerance")
    args = parser.parse_args(argv)
    numeric = args.rtol > 0 or args.atol > 0
    with tempfile.TemporaryDirectory(prefix="outputs-identical-") as tmp:
        works = []
        for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
            tree, work = Path(tmp) / side / "tree", Path(tmp) / side / "work"
            export(rev, tree)
            produce(tree, work)
            works.append(work)
        work_a, work_b = works
        same = passed = True
        for rel in sorted(outputs(work_a) | outputs(work_b)):
            a, b = work_a / rel, work_b / rel
            both = a.is_file() and b.is_file()
            ok = both and filecmp.cmp(a, b, shallow=False)
            tol = Tolerance(args.rtol, args.atol)
            near = both and not ok and numeric and close(a, b, tol)
            same = same and ok
            passed = passed and (ok or near)
            verdict = "identical" if ok else "close" if near else "differs"
            print(f"{verdict:9}  {rel}")
            if tol.worst[1] is not None:
                print(f"    {tol.worst[0]:.3g} of the tolerance at "
                      f"{tol.worst[1]}")
            diff = None if ok or near else first_difference(a, b)
            if diff is not None:
                number, line_a, line_b = diff
                print(f"    {args.rev_a}:{number}: {line_a}")
                print(f"    {args.rev_b}:{number}: {line_b}")
    if same:
        print("all identical")
    elif numeric and passed:
        print(f"all identical or close (rtol {args.rtol:g}, "
              f"atol {args.atol:g})")
    else:
        print("some outputs differ")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())

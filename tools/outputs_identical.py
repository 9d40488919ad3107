"""Compare the deterministic outputs of two revisions byte for byte.

    python3 tools/outputs_identical.py REV_A REV_B

Each revision's `src/` and `demos/` are exported with `git archive` into a
temporary directory.  Both exports then run the same fixed cases:

  * `simulate`, `classify` and `bounds` on three run configs: the README
    example (m = 2, n = 3, nx = 201, t_end = 10), the `BASE_CFG` of
    `tests/test_harness.py` (m = 1, n = 2, nx = 81) and that config with
    NaN initial data;
  * `fit --model exp|poly|log` on each `energy.csv` that `simulate` wrote;
  * `sweep` on the AC-9 sweep config of `tests/test_acceptance.py`;
  * the three scripts in `demos/`.

Every output file, every stdout and every exit code is compared with the
other revision's, and one line per item says "identical" or "differs".
Under each text file that differs, the first line that differs is printed
from each side, with its line number, so the size of a difference shows
without rerunning anything.  The exit status is 0 when everything is
identical and 1 otherwise.  Standard library only.
"""
from __future__ import annotations

import argparse
import filecmp
import io
import os
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

RUN_CONFIGS = {
    "readme": README_CFG,
    "harness": HARNESS_CFG.format(v0="0.05"),
    "nan-v0": HARNESS_CFG.format(v0="nan"),
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
    cwd = work / "ac9" / "sweep"
    cwd.mkdir(parents=True)
    (cwd / "sweep.cfg").write_text(AC9_SWEEP_CFG, encoding="utf-8")
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="outputs-identical-") as tmp:
        works = []
        for side, rev in (("a", args.rev_a), ("b", args.rev_b)):
            tree, work = Path(tmp) / side / "tree", Path(tmp) / side / "work"
            export(rev, tree)
            produce(tree, work)
            works.append(work)
        work_a, work_b = works
        same = True
        for rel in sorted(outputs(work_a) | outputs(work_b)):
            a, b = work_a / rel, work_b / rel
            ok = a.is_file() and b.is_file() and filecmp.cmp(a, b,
                                                             shallow=False)
            same = same and ok
            print(f"{'identical' if ok else 'differs  '}  {rel}")
            diff = None if ok else first_difference(a, b)
            if diff is not None:
                number, line_a, line_b = diff
                print(f"    {args.rev_a}:{number}: {line_a}")
                print(f"    {args.rev_b}:{number}: {line_b}")
    print("all identical" if same else "some outputs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

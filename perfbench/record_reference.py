"""Record perfbench/reference.json: the outputs of every candidate member of
every workload, run exactly as the benchmark runs them.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are trusted; the benchmark's oracle
compares later commits against this file.  It refuses to write a reference in
which a member errs or in which two candidates of one stratum differ in
classification or outcome, since then the seed would change the fate mix.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORK, setup_program


def record(wl) -> dict:
    import workloads as W
    pool = wl.pool()
    workdir = WORK / f"reference-{wl.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        unit = W.run_unit(wl, pool, W.build_inputs(wl, pool), 0, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bad = [m.amplitude for m in unit.members
           if m.error is not None or m.trajectory is None]
    if bad:
        raise SystemExit(f"{wl.name}: members {bad} failed")
    per = len(W.NOTCHES)
    for i in range(0, len(pool), per):
        fates = {(m.classification, m.outcome)
                 for m in unit.members[i:i + per]}
        if len(fates) != 1:
            raise SystemExit(f"{wl.name}: stratum {i // per} mixes {fates}")
    members = {W.key(m.amplitude): W.reference_entry(m)
               for m in unit.members}
    return {
        "M_threshold": W.m_threshold_of(wl),
        "residual_max": max(e["residual"] for e in members.values()
                            if e["outcome"] == "completed"),
        "members": members,
    }


def main() -> int:
    setup_program()
    import workloads as W
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                            cwd=ROOT, capture_output=True, text=True,
                            check=False).stdout.strip()
    out = {"recorded_at": commit or None,
           "workloads": {}}
    for wl in W.WORKLOADS.values():
        out["workloads"][wl.name] = record(wl)
        print(f"{wl.name}: {len(out['workloads'][wl.name]['members'])} "
              f"members", file=sys.stderr)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

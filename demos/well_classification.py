"""Potential-well geometry and fate prediction from initial data alone.

Builds the scalar well report for quadratic sources (n = 3): the Sobolev
embedding constants, the barrier height Lambda*, and the blow-up energy
threshold M.  Then it classifies a family of sine-mode initial states by
amplitude and checks the prediction against short simulations.
"""
from dataclasses import asdict

import numpy as np

import piezowave as pw

params = pw.make_params(rho=1.0, alpha=2.0, beta=1.0, gamma=1.0, mu=1.0)
grid = pw.Grid1D(L=1.0, nx=101)
exps = pw.validate_exponents(2, 2, 3, 3)

report = pw.well_report(params, exps, grid)
print("well report")
for key, value in asdict(report).items():
    print(f"  {key:12s} = {value:.10g}")

print()
print(f"{'amplitude':>9s}  {'E0':>10s}  {'S0':>10s}  "
      f"{'classification':26s}  outcome")
for a in (0.05, 0.15, 0.5, 1.2, 2.0, 3.0):
    st0 = pw.state_from_modes(grid, [a], [0.9 * a], [0.0], [0.0])
    e0 = pw.total_energy(st0, params, exps, grid)
    s0 = pw.sign_functional(st0, params, exps, grid)
    cls = pw.classify_initial(st0, report, params, exps, grid)
    traj = pw.simulate(st0, params, exps, grid, pw.StepConfig(dt=1e-3),
                       t_end=5.0, record_every=100)
    print(f"{a:9.2f}  {e0:10.3g}  {s0:10.3g}  {cls:26s}  {traj.outcome}")

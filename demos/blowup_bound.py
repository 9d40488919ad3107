"""Finite-time blow-up and the concavity-method upper bound on its time.

With linear damping (m = 1), super-quadratic sources, and large initial
data, the solution escapes to infinity in finite time.  When the scalar
energy-smallness condition holds, a concave auxiliary function yields an a
priori upper bound on the blow-up time; the observed detection time must
sit below it.
"""
import piezowave as pw

params = pw.make_params(rho=1.0, alpha=2.0, beta=1.0, gamma=1.0, mu=1.0)
grid = pw.Grid1D(L=1.0, nx=101)
exps = pw.validate_exponents(1, 1, 2.5, 2.5)
st0 = pw.state_from_modes(grid, [3.0], [2.7], [1.5], [1.35])

pc = pw.poincare_constant(grid)
e0 = pw.total_energy(st0, params, exps, grid)
thr = pw.theorem210_threshold(st0, params, exps, grid, pc)
print(f"E0 = {e0:.6g}")
print(f"smallness condition: E0 <= {thr['bound_value']:.6g} "
      f"-> satisfied = {thr['satisfied']}")

kappa, tau, bound = pw.tmax_upper_bound(st0, params, exps, grid, pc)
print(f"kappa = {kappa:.6g}, tau = {tau:.6g}, t_max bound = {bound:.6g}")

traj = pw.simulate(st0, params, exps, grid,
                   pw.StepConfig(dt=1e-3, blowup_cutoff=1e6),
                   t_end=20.0, record_every=10)
report = pw.blowup_report(traj, st0, params, exps, grid)
print(f"outcome: {traj.outcome} at t = {traj.t_detect:.4f} "
      f"(trigger: {traj.trigger})")
print(f"G = -E monotone along the run: {report.G_monotone_ok}")
print(f"detected time within the bound: {traj.t_detect <= bound}")

import importlib.machinery
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import piezowave as pw
import piezowave.grid as grid_module
from piezowave.grid import (grad_norm_sq, l2_norm_sq, lp_norm_pow,
                            quadratic_form, row_power, second_difference,
                            sine_modes, tridiagonal_solver)


def test_grid_basics():
    g = pw.Grid1D(2.0, 5)
    assert g.dx == 0.5
    assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert g.weights.sum() == pytest.approx(2.0)


def test_weights_built_once_and_read_only():
    # dx and the weights are set at construction, as attributes
    assert set(vars(pw.Grid1D(1.0, 201))) == {"L", "nx", "dx", "weights"}
    g = pw.Grid1D(2.0, 5)
    assert g.weights is g.weights
    with pytest.raises(ValueError):
        g.weights[1] = 0.0
    # they are no fields: equality and hash see (L, nx) only
    assert g == pw.Grid1D(2.0, 5) and hash(g) == hash(pw.Grid1D(2.0, 5))


def _fresh_import(code: str, first: str = "") -> str:
    """Standard output of code run in a fresh interpreter right after it
    runs first and imports piezowave from this tree."""
    src = str(Path(pw.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
         f"{first}import piezowave; {code}"],
        capture_output=True, text=True, check=True).stdout.strip()


@pytest.mark.parametrize("prefix", ["scipy.sparse", "scipy.linalg",
                                    "numpy.f2py"])
def test_import_loads_no_unused_module(prefix):
    """The one tridiagonal factorization is LAPACK's, from scipy's LAPACK
    extension loaded as a file: `import piezowave` pulls in no
    scipy.sparse, scipy.linalg or numpy.f2py module."""
    assert _fresh_import("print(sorted(m for m in sys.modules "
                         f"if m.startswith({prefix!r})))") == "[]"


def test_lapack_functions_are_scipys():
    """dpttrf and dpttrs of the file-loaded extension are the very objects
    that scipy.linalg.lapack exports when imported after piezowave, so
    every solve is scipy's bit for bit; with scipy.linalg imported first,
    the extension is scipy's own module, left in sys.modules; in this
    process, whichever came first, they are scipy's."""
    assert _fresh_import(
        "import scipy.linalg.lapack as s; from piezowave.grid import lapack;"
        " print(lapack.dpttrf is s.dpttrf, lapack.dpttrs is s.dpttrs)"
    ) == "True True"
    assert _fresh_import(
        "from piezowave.grid import lapack; print(lapack is s._flapack is "
        "sys.modules['scipy.linalg._flapack'])",
        first="import scipy.linalg.lapack as s; ") == "True"
    import scipy.linalg.lapack
    assert grid_module.lapack.dpttrf is scipy.linalg.lapack.dpttrf
    assert grid_module.lapack.dpttrs is scipy.linalg.lapack.dpttrs


@pytest.mark.parametrize("finder", [
    (importlib.machinery.PathFinder, "find_spec"),
    (importlib.util, "find_spec")], ids=["no-extension", "no-scipy"])
def test_missing_lapack_extension_is_an_import_error(finder, monkeypatch):
    """No extension file, or no scipy, is an ImportError naming the
    extension."""
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(*finder, lambda *args: None)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        grid_module._load_flapack()


def _coupled_laplacian(v, p, grid, params):
    """(alpha D2 v - gamma beta D2 p, beta D2 p - gamma beta D2 v), with D2
    assembled from the bands of second_difference."""
    d2 = sp.diags(second_difference(grid), [-1, 0, 1])
    gb = params.gamma * params.beta
    return (params.alpha * (d2 @ v) - gb * (d2 @ p),
            params.beta * (d2 @ p) - gb * (d2 @ v))


def test_grid_validation():
    with pytest.raises(ValueError):
        pw.Grid1D(-1.0, 11)
    with pytest.raises(ValueError):
        pw.Grid1D(1.0, 2)


def test_trapezoid_quadrature_exact_on_linear():
    g = pw.Grid1D(1.0, 11)
    assert np.dot(g.weights, g.nodes) == pytest.approx(0.5, abs=1e-14)


def test_sine_modes_satisfy_boundary_conditions(ref_grid):
    u = sine_modes(ref_grid, [1.0, -0.5, 0.25])
    assert u[0] == 0.0
    # slope at x = L vanishes analytically; the one-sided difference is O(dx)
    assert abs((u[-1] - u[-2]) / ref_grid.dx) < 0.1


def test_l2_norm_of_first_mode(ref_grid):
    # int_0^1 sin^2(pi x / 2) dx = 1/2
    u = sine_modes(ref_grid, [1.0])
    assert l2_norm_sq(u, ref_grid) == pytest.approx(0.5, rel=1e-4)


def test_grad_norm_of_first_mode(ref_grid):
    # int_0^1 (pi/2)^2 cos^2(pi x / 2) dx = pi^2 / 8
    u = sine_modes(ref_grid, [1.0])
    assert grad_norm_sq(u, ref_grid) == pytest.approx(np.pi**2 / 8, rel=1e-4)


def test_lp_norm_pow_rejects_bad_exponent(ref_grid):
    with pytest.raises(ValueError):
        lp_norm_pow(np.ones(ref_grid.nx), 0.5, ref_grid)


def test_quadratic_form_decomposition(ref_params, ref_grid, rng):
    v = sine_modes(ref_grid, rng.standard_normal(3))
    p = sine_modes(ref_grid, rng.standard_normal(3))
    q = quadratic_form(v, p, ref_grid, ref_params)
    gv = np.diff(v) / ref_grid.dx
    gp = np.diff(p) / ref_grid.dx
    mix = ref_params.gamma * gv - gp
    expected = ref_grid.dx * (ref_params.alpha1 * np.dot(gv, gv)
                              + ref_params.beta * np.dot(mix, mix))
    assert q == pytest.approx(expected, rel=1e-14)
    assert q >= 0.0


def test_summation_by_parts_identity(ref_params, ref_grid, rng):
    """<L(v,p), (v,p)>_w = -Q(v,p) must hold to roundoff: this pairing is
    what makes the semi-discrete energy law exact."""
    for _ in range(20):
        v = rng.standard_normal(ref_grid.nx)
        p = rng.standard_normal(ref_grid.nx)
        v[0] = p[0] = 0.0
        lv, lp_ = _coupled_laplacian(v, p, ref_grid, ref_params)
        w = ref_grid.weights
        inner = np.dot(w, lv * v) + np.dot(w, lp_ * p)
        q = quadratic_form(v, p, ref_grid, ref_params)
        assert inner == pytest.approx(-q, rel=1e-10, abs=1e-10)


def test_laplacian_second_order_convergence(ref_params):
    """Interior truncation error of the coupled operator halves twice per
    grid refinement on a smooth compatible field."""
    errs = []
    for nx in (51, 101, 201):
        g = pw.Grid1D(1.0, nx)
        x = g.nodes
        v = np.sin(0.5 * np.pi * x)
        p = np.sin(1.5 * np.pi * x)
        lv, lp_ = _coupled_laplacian(v, p, g, ref_params)
        exact_v = (-ref_params.alpha * (0.5 * np.pi) ** 2 * v
                   + ref_params.gamma * ref_params.beta
                   * (1.5 * np.pi) ** 2 * p)
        errs.append(np.max(np.abs(lv - exact_v)[1:-1]))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


def test_discrete_poincare_positivity(ref_grid, rng):
    """||u||_2 <= c ||u_x||_2 with the computed discrete constant."""
    c = pw.poincare_constant(ref_grid)
    assert c > 0
    for _ in range(20):
        u = rng.standard_normal(ref_grid.nx)
        u[0] = 0.0
        lhs = l2_norm_sq(u, ref_grid)
        rhs = c * c * grad_norm_sq(u, ref_grid)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_state_copy_and_scaled(ref_grid):
    s = pw.state_from_modes(ref_grid, [1.0], [0.5], [0.2], [0.1])
    c = s.copy()
    c.v[0] = 99.0
    assert s.v[0] == 0.0
    d = pw.State.stacked(2.0 * s.y, s.t)
    assert np.allclose(d.p, 2.0 * s.p)


def test_zero_state(ref_grid):
    z = pw.zero_state(ref_grid)
    assert l2_norm_sq(z.v, ref_grid) == 0.0


def test_state_rows_are_views_of_one_array(ref_grid, rng):
    """v, p, vt and pt are the rows of the (4, nx) array y: a write through
    a row shows in y, and copy() copies y."""
    v, p, vt, pt = (rng.standard_normal(ref_grid.nx) for _ in range(4))
    s = pw.State(v, p, vt, pt)
    assert s.t == 0.0 and s.y.shape == (4, ref_grid.nx)
    assert np.array_equal(s.y, np.array([v, p, vt, pt]))
    s.v[0] = 99.0
    s.pt[-1] = -7.0
    assert s.y[0, 0] == 99.0 and s.y[3, -1] == -7.0
    assert v[0] != 99.0          # the constructor copied its arguments
    c = s.copy()
    c.vt[3] = 5.0
    c.t = 1.0
    assert s.y[2, 3] == vt[3] and s.t == 0.0
    assert pw.State(v, p, vt, pt, 0.25).t == 0.25


def test_block_diagonal_solve_matches_per_block_solves(rng):
    """Two symmetric positive definite tridiagonal systems laid end to end,
    with a zero off-diagonal between them, solve bit for bit like the two
    systems on their own, one right-hand side and several alike."""
    n = 57
    for _ in range(20):
        blocks = []
        for _ in range(2):
            off = rng.standard_normal(n - 1)
            main = (np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
                    + rng.uniform(0.1, 2.0, n))
            blocks.append((main, off))
        (d0, e0), (d1, e1) = blocks
        merged = tridiagonal_solver(np.concatenate([d0, d1]),
                                    np.concatenate([e0, [0.0], e1]))
        solvers = [tridiagonal_solver(*band) for band in blocks]
        rhs = rng.standard_normal((3, 2, n))
        expected = np.array([[s(r.copy()) for s, r in zip(solvers, member)]
                             for member in rhs])
        assert np.array_equal(merged(rhs[0].flatten()).reshape(2, n),
                              expected[0])
        got = merged(rhs.reshape(3, 2 * n).T.copy(order="F"))
        assert np.array_equal(got.T.reshape(rhs.shape), expected)


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310,
           1e300, -1e300, 1e-300, -1e-300]


def _rows_with_specials(rng):
    """(3, 2, 40) normal draws with SPECIAL in two of their rows."""
    rows = rng.standard_normal((3, 2, 40))
    rows[0, 0, :len(SPECIAL)] = SPECIAL
    rows[2, 1, -len(SPECIAL):] = SPECIAL[::-1]
    return rows


@pytest.mark.parametrize("q", [1.0, 2.0, 2.5])
def test_row_powers_match_pow_bit_for_bit(q, rng):
    """row_power takes no pow at q = 1 and q = 2, and q = 1, 2 and 2.5
    give the bits of np.abs(rows) ** q, on signed zeros, infinities, NaN,
    subnormals, 1e+-300 and normal draws."""
    rows = _rows_with_specials(rng)
    with np.errstate(over="ignore", under="ignore"):
        expected = np.abs(rows) ** q
        assert np.array_equal(row_power(q, q)(rows), expected,
                              equal_nan=True)
        assert np.array_equal(row_power(q, q + 0.5)(rows)[..., 0, :],
                              expected[..., 0, :], equal_nan=True)


@pytest.mark.parametrize("q", [3.0, 4.0])
def test_row_powers_take_products_at_q_3_and_4(q, rng):
    """|x|^3 is |x| (x x) and |x|^4 is (x x)^2, bit for bit, one row at a
    time too when the two exponents differ.  On signed zeros, infinities,
    NaN, subnormals and 1e+-300 they equal pow exactly, and on normal draws
    they lie within 2 ulp of it."""
    rows = _rows_with_specials(rng)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        sq = rows * rows
        product = np.abs(rows) * sq if q == 3.0 else sq * sq
        got = row_power(q, q)(rows)
        pow_q = np.abs(rows) ** q
        assert got.tobytes() == product.tobytes()
        for other in (1.0, 2.5):
            assert row_power(q, other)(rows)[:, 0].tobytes() \
                == product[:, 0].tobytes()
            assert row_power(other, q)(rows)[:, 1].tobytes() \
                == product[:, 1].tobytes()
        special = np.array(SPECIAL)
        assert np.array_equal(row_power(q, q)(special),
                              np.abs(special) ** q, equal_nan=True)
        error = np.abs(got - pow_q)
    normal = np.ones(rows.shape, dtype=bool)
    normal[0, 0, :len(SPECIAL)] = normal[2, 1, -len(SPECIAL):] = False
    assert np.all(pow_q[normal] >= np.finfo(float).tiny)
    assert np.all(error[normal] <= 2 * np.spacing(pow_q[normal]))


def test_lp_norm_pow_takes_the_row_powers_rule(rng):
    """lp_norm_pow integrates row_power's |x|^q, so the damping and source
    norms at m, n = 2, 3 take products like the step's records."""
    grid = pw.Grid1D(1.0, 41)
    field = rng.standard_normal(grid.nx)
    for q in (1.0, 2.0, 2.5, 3.0, 4.0):
        assert lp_norm_pow(field, q, grid) \
            == float(np.dot(grid.weights, row_power(q, q)(field)))

import math

import numpy as np

from ellreg import casework
from ellreg.grid import Field, GridSpec, random_band_limited_field, spectral_derivative
from ellreg.mollify import mollify
from ellreg.pdo import apply, operator_from_description
from ellreg.profiles import Plateau, radial_window


def test_factorization_identity():
    # A f must equal (1 - d)(x d^2 f) for smooth windowed f, A = -x d^3 + (x - 1) d^2
    grid = GridSpec(1, 640, math.pi)
    A = operator_from_description(grid, {"order": 3, "entries": [
        {"alpha": [3], "coeff": {"token": "x", "scale": -1.0}},
        {"alpha": [2], "coeff": {"token": "x-1"}},
    ]})
    x = grid.coords()[..., 0]
    w = radial_window(grid, 0.5, 2.5)
    f = Field(grid, (np.sin(2.0 * x) * w)[..., None])
    lhs = apply(A, f)
    d2f = spectral_derivative(f, (2,))
    xd2f = Field(grid, x[..., None] * d2f.samples)
    rhs = xd2f - spectral_derivative(xd2f, (1,))
    assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-8


def test_line_grid_excludes_origin():
    line = casework.LineGrid(64, math.pi)
    assert np.min(np.abs(line.points())) > 0.0
    assert abs(line.points()[1] - line.points()[0] - line.h) < 1e-15


def test_line_grid_quadrature():
    line = casework.LineGrid(4096, math.pi)
    x = line.points()
    assert abs(line.lp(np.sin(x), 1.0) - 4.0) < 1e-6
    assert abs(line.lp(np.sin(x), 2.0) - math.sqrt(math.pi)) < 1e-6


def test_line_grid_fd_orders():
    line = casework.LineGrid(2048, math.pi)
    x = line.points()
    w = Plateau(1.0, 2.0)(x)
    f = np.sin(2.0 * x) * w
    exact1 = 2.0 * np.cos(2.0 * x) * w + np.sin(2.0 * x) * Plateau(1.0, 2.0).d1(x)
    assert np.max(np.abs(line.fd1(f) - exact1)) < 5e-4


def test_singular_element_closed_forms():
    elem = casework.SingularElement(Plateau(0.5, 1.0))
    x = np.linspace(0.01, 0.4, 50)  # inside the phi(x) = x region
    assert np.max(np.abs(elem.u(x) - x * np.log(x))) < 1e-14
    assert np.max(np.abs(elem.du(x) - (np.log(x) + 1.0))) < 1e-13
    assert np.max(np.abs(elem.d2u(x) - 1.0 / x)) < 1e-11
    assert np.max(np.abs(elem.v(x) - 1.0)) < 1e-12  # v = x d2u = 1 near 0


def test_hardy_average_linear():
    # g(x) = x near the origin: the average of dg is exactly one there
    grid = GridSpec(1, 512, math.pi)
    x = grid.coords()[..., 0]
    w = radial_window(grid, 1.0, 2.5)
    g = Field(grid, (x * w)[..., None])
    rep = casework.hardy_average(g, 2.0)
    mask = np.abs(x) < 0.5
    assert np.max(np.abs(rep.h.samples[mask] - 1.0)) < 1e-6


def test_hardy_average_quadratic():
    # g(x) = x^2 near the origin: h(x) = x there
    grid = GridSpec(1, 512, math.pi)
    x = grid.coords()[..., 0]
    w = radial_window(grid, 1.0, 2.5)
    g = Field(grid, (x**2 * w)[..., None])
    rep = casework.hardy_average(g, 2.0)
    mask = np.abs(x) < 0.5
    assert np.max(np.abs(rep.h.samples[..., 0][mask] - x[mask])) < 1e-6


def test_hardy_ratio_bounded_on_corpus():
    # oracle first: recompute one ratio by dense trapezoid quadrature at 8x
    grid = GridSpec(1, 256, math.pi)
    fine = GridSpec(1, 2048, math.pi)
    xf = fine.coords()[..., 0]
    w = radial_window(fine, 1.0, 2.5)
    gf = Field(fine, (np.sin(3.0 * xf) * w)[..., None])
    rep_fine = casework.hardy_average(gf, 2.0)
    xc = grid.coords()[..., 0]
    wc = radial_window(grid, 1.0, 2.5)
    gc = Field(grid, (np.sin(3.0 * xc) * wc)[..., None])
    rep_coarse = casework.hardy_average(gc, 2.0)
    assert abs(rep_coarse.ratio - rep_fine.ratio) < 0.01 * rep_fine.ratio

    for p in (1.5, 2.0, 4.0):
        bound = p / (p - 1.0) * 1.03
        rng = np.random.Generator(np.random.PCG64(42))
        for _ in range(10):
            f = random_band_limited_field(grid, 1, rng, band_fraction=0.1)
            win = radial_window(grid, 1.5, 2.8)[..., None]
            g = Field(grid, f.samples * win)
            rep = casework.hardy_average(g, p)
            assert rep.ratio <= bound


def test_nondensity_witness():
    wit = casework.nondensity_witness(2.0, [0.4, 0.2, 0.1, 0.05], n_ref=8192)
    assert wit["v_at_0"] == 1.0
    for row in wit["rows"]:
        assert abs(row["v_eps_at_0"]) < 1e-2
    assert wit["graph_error_floor"] >= 0.5
    assert wit["u_lp_decay"] >= 4.0
    # trace-calibrated lower bound is itself above the floor threshold
    assert wit["trace_lower_bound"] >= 0.5
    errors = [row["u_lp_error"] for row in wit["rows"]]
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_witness_smoothing_keeps_the_odd_element_odd(monkeypatch):
    # u = phi ln|x| is odd on the symmetric staggered line, so its smoothing
    # must be too: a kernel off centre by half a cell breaks the symmetry
    smoothed = []

    def spy(f, eps):
        out = mollify(f, eps)
        smoothed.append(out.samples[:, 0].real)
        return out

    monkeypatch.setattr(casework, "mollify", spy)
    casework.nondensity_witness(2.0, [0.4, 0.05], n_ref=8192)
    assert len(smoothed) == 2
    for u_eps in smoothed:
        assert np.max(np.abs(u_eps + u_eps[::-1])) <= 1e-12 * np.max(np.abs(u_eps))


def test_w1p_inclusion_smooth_reduces_directly():
    # smooth u: g = x d2u has g(0) = 0, so no log term and no Heaviside jump
    line = casework.LineGrid(2048, math.pi)
    x = line.points()
    prof = Plateau(1.0, 2.0)
    u = np.sin(x) * prof(x)
    d2u = (
        -np.sin(x) * prof(x)
        + 2.0 * np.cos(x) * prof.d1(x)
        + np.sin(x) * prof.d2(x)
    )
    g = x * d2u
    g0 = line.value_at_zero(g)
    assert abs(g0) < 1e-5


def test_w1p_inclusion_log_element():
    # oracle first: windowed L^p norm of du from dense quadrature of the
    # closed form (log integrals), at 8x the coarsest test resolution
    elem = casework.SingularElement(Plateau(0.5, 1.0))
    oracle_line = casework.LineGrid(16384, math.pi)
    xo = oracle_line.points()
    window = math.pi / 4.0
    oracles = {
        p: oracle_line.lp(elem.du(xo), p, mask=np.abs(xo) <= window)
        for p in (1.5, 2.0, 4.0)
    }
    for p in (1.5, 2.0, 4.0):
        rep = casework.w1p_inclusion_check(p)
        assert all(c <= 0.05 for c in rep["w1p_rel_changes"])
        assert abs(rep["w1p_window_norms"][-1] - oracles[p]) < 0.02 * oracles[p]
        assert abs(rep["fits"][-1]["a0"]) < 1e-8
        assert rep["reconstruction_error"][-1] < 1e-4
        # shell quadrature of |1/x|^p doubles per refinement at rate 2^(1-1/p)
        expected = 2.0 ** (1.0 - 1.0 / p)
        for factor in rep["w2p_growth_factors"]:
            assert abs(factor - expected) < 0.05 * expected


def test_regularity_gap_log_singular_field():
    # oracle: the Laplacian of |x|^2 log|x| is 4 log|x| + 4, integrable
    grid = GridSpec(2, 128, math.pi)
    f = casework.log_singular_field(grid)
    lap = spectral_derivative(f, (2, 0)) + spectral_derivative(f, (0, 2))
    coords = grid.coords()
    r = np.sqrt(np.sum(coords**2, axis=-1))
    inner = (r > 0.15) & (r < 0.9)
    exact = 4.0 * np.log(r[inner]) + 4.0
    measured = lap.samples[..., 0].real[inner]
    assert np.max(np.abs(measured - exact)) < 0.05


def test_regularity_gap_experiment_verdicts():
    rep = casework.regularity_gap_experiment(grid_sizes=(64, 128, 256), half_period=math.pi)
    for verdict in rep["verdicts"].values():
        assert verdict["stable"]
    assert "not certified" in rep["note"]


def test_regularity_gap_smooth_data_trivially_stable():
    from ellreg.besov import sobolev_norm

    vals = []
    for n in (64, 128):
        grid = GridSpec(1, n, math.pi)
        x = grid.coords()[..., 0]
        f = Field(grid, (np.sin(x) * Plateau(1.0, 2.0)(x))[..., None])
        vals.append(sobolev_norm(f, 2, 2.0))
    assert abs(vals[1] / vals[0] - 1.0) < 0.01

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from ellreg import pdo
from ellreg.errors import ChannelMismatch, VariableCoefficients
from ellreg.grid import (
    Field,
    GridSpec,
    apply_multiplier,
    dft,
    field_from_function,
    random_band_limited_field,
    idft,
    monomial,
    multiply,
    spectral_derivative,
)
from ellreg.pdo import (
    PDOperator,
    apply,
    multi_indices,
    neg_laplacian,
    operator_from_constant,
    operator_from_description,
    parameter_ellipticity_constant,
    symbol_field,
    unit_directions,
)
from ellreg.resolvent import ResolventProblem, solve_constant


def variable_operator(grid):
    """-(1 + 0.3 cos x) d^2 + sin(x) d + 2, periodic smooth coefficients."""
    x = grid.coords()[..., 0]
    c2 = -(1.0 + 0.3 * np.cos(x))[..., None, None].astype(np.complex128)
    c1 = np.sin(x)[..., None, None].astype(np.complex128)
    c0 = np.full(grid.shape + (1, 1), 2.0, dtype=np.complex128)
    return PDOperator(grid, 2, 1, 1, {(2,): c2, (1,): c1, (0,): c0})


def test_multi_index_helpers():
    assert multi_indices(2, 1) == [(0, 0), (0, 1), (1, 0)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_multi_indices_are_the_filtered_product_in_its_order(dim):
    # the reference: every order's filtered cube, in itertools.product's order
    for order in range(9):
        want = [alpha for total in range(order + 1)
                for alpha in itertools.product(range(total + 1), repeat=dim) if sum(alpha) == total]
        assert multi_indices(dim, order) == want


def test_multi_indices_count_at_a_large_order():
    # |alpha| <= k in N^m: C(k + m, m) indices
    assert len(multi_indices(3, 60)) == math.comb(63, 3)


def test_apply_single_mode(grid1d):
    f = field_from_function(grid1d, lambda x: np.exp(1j * 4 * x[..., 0]))
    Q = neg_laplacian(grid1d)
    out = apply(Q, f)
    assert np.max(np.abs(out.samples - 16.0 * f.samples)) < 1e-10


def test_apply_variable_coefficient(grid1d):
    P = variable_operator(grid1d)
    f = field_from_function(grid1d, lambda x: np.sin(2.0 * x[..., 0]))
    x = grid1d.coords()[..., 0]
    exact = (
        (1.0 + 0.3 * np.cos(x)) * 4.0 * np.sin(2.0 * x)
        + np.sin(x) * 2.0 * np.cos(2.0 * x)
        + 2.0 * np.sin(2.0 * x)
    )
    out = apply(P, f).samples[..., 0]
    assert np.max(np.abs(out - exact)) < 1e-10


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("matrix", [False, True], ids=["scalar-m", "3x3-m"])
def test_apply_to_a_spectrum_matches_apply_to_its_samples(dim, matrix, rng):
    # P (m f^) taken in coefficient space equals P applied to the samples of m f^;
    # P has variable 3x3 coefficients at every order up to 2, the zero-order term included
    grid = GridSpec(dim, 32, math.pi)
    x = grid.coords()[..., 0]
    profile = (np.cos(x) + 0.5j * np.sin(2.0 * x))[..., None, None]
    coeffs = {alpha: profile * rng.standard_normal((3, 3)) + rng.standard_normal((3, 3))
              for alpha in multi_indices(dim, 2)}
    P = PDOperator(grid, 2, 3, 3, coeffs)
    f = random_band_limited_field(grid, 3, rng)
    xi2 = np.sum(grid.freqs() ** 2, axis=-1)
    if matrix:
        m = rng.standard_normal(grid.shape + (3, 3)) + 1j * rng.standard_normal(grid.shape + (3, 3))
    else:
        m = 1.0 / (1j + 4.0 + xi2)
    expected = apply(P, apply_multiplier(f, m)).samples
    got = apply(P, dft(f), m).samples
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_principal_symbol_homogeneity(grid1d):
    P = variable_operator(grid1d)
    xi = np.array([1.7])
    for t in (2.0, 3.5):
        s1 = symbol_field(P, t * xi)[5]
        s2 = symbol_field(P, xi)[5] * t**P.order
        assert np.max(np.abs(s1 - s2)) < 1e-12


def dense_parameter_constant_oracle():
    """Direct max of (r+|xi|)^2 / |r^2 e^{i pi} - xi^2| over a dense grid."""
    best = 0.0
    for s in np.linspace(0.0, np.pi / 2.0, 2001):
        r, rho = math.sin(s), math.cos(s)
        if r == 0.0 and rho == 0.0:
            continue
        denom = abs(r**2 * np.exp(1j * np.pi) - (-((1j * rho) ** 2)))
        best = max(best, (r + rho) ** 2 / denom)
    return best


def test_parameter_ellipticity_constant_oracle(grid1d):
    oracle = dense_parameter_constant_oracle()
    assert abs(oracle - 2.0) < 1e-5  # analytic value for the negative Laplacian
    Q = neg_laplacian(grid1d)
    C, ok = parameter_ellipticity_constant(Q, math.pi, arc_samples=2001)
    assert ok
    assert abs(C - oracle) < 1e-6


def test_parameter_ellipticity_detects_singularity(grid1d):
    # theta0 = 0 puts the ray on the symbol's range: xi^2 = r^2 is hit
    Q = neg_laplacian(grid1d)
    _, ok = parameter_ellipticity_constant(Q, 0.0, arc_samples=3)
    assert not ok


@pytest.mark.parametrize("s", [1e-13, 1e-6, 1.0, 1e13])
def test_parameter_ellipticity_singularity_test_is_scale_free(grid1d, s):
    # -s d^2 is parameter-elliptic at theta0 = pi for every s > 0: the sampled
    # block -(r^2 + s rho^2) gives C = max (r + rho)^2 / (r^2 + s rho^2)
    Q = operator_from_constant(grid1d, {(2,): -s}, order=2)
    C, ok = parameter_ellipticity_constant(Q, math.pi)
    arc = np.linspace(0.0, math.pi / 2.0, 17)
    r, rho = np.sin(arc), np.cos(arc)
    closed = float(np.max((r + rho) ** 2 / (r**2 + s * rho**2)))
    assert ok
    assert abs(C - closed) <= 1e-12 * closed


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [1e-13, 0.5, 1.0, 2.0, 1e13])
def test_parameter_ellipticity_detects_the_singular_ray_at_every_scale(dim, s):
    # at theta0 = 0 the block r^2 - s rho^2 of -s Laplacian is singular on the
    # ray r = sqrt(s) rho, which the 17 arc samples hit only at s = 1
    grid = GridSpec(dim, 32, math.pi)
    coeffs = {tuple(2 * (j == axis) for j in range(dim)): -s for axis in range(dim)}
    Q = operator_from_constant(grid, coeffs, order=2)
    assert not parameter_ellipticity_constant(Q, 0.0)[1]
    assert parameter_ellipticity_constant(Q, math.pi)[1]


def pointwise_parameter_constant(Q, theta0, arc_samples=17):
    """parameter_ellipticity_constant by brute force: one symbol and one block test per (s, w)."""
    n, worst = Q.order, 0.0
    dirs = unit_directions(Q.grid.dim, 64)
    mu = np.linalg.eigvals(np.stack([symbol_field(Q, w) for w in dirs]))
    ok = not np.any(np.abs(mu - np.abs(mu) * np.exp(1j * theta0)) <= 1e-12 * np.abs(mu))
    for s in np.linspace(0.0, math.pi / 2.0, arc_samples):
        r, rho = math.sin(s), math.cos(s)
        lam = r**n * np.exp(1j * theta0)
        for w in dirs:
            sym = symbol_field(Q, rho * w)
            smin = np.linalg.svd(lam * np.eye(Q.in_channels) - sym, compute_uv=False)[..., -1]
            if np.any(smin <= 1e-14 * (abs(lam) + np.linalg.norm(sym, axis=(-2, -1)))):
                ok = False
                continue
            worst = max(worst, (r + float(np.linalg.norm(rho * w))) ** n / float(np.min(smin)))
    return worst, ok


def anisotropic_two_channel_operator():
    """2-D, 2-channel, variable coefficients: at theta0 = 0 its blocks at s = pi/4 are singular
    in the four axis directions only, where a = 1 + 0.3 cos x is 1 (x = +-pi/2)."""
    grid = GridSpec(2, 8, math.pi)
    x = grid.coords()[..., 0]
    a = (1.0 + 0.3 * np.cos(x))[..., None, None]
    c = np.sin(x)[..., None, None]
    coeffs = {(2, 0): -a * np.diag([1.0, 2.0]), (0, 2): -a * np.diag([2.0, 1.0]),
              (1, 1): -c * np.array([[0.0, 0.1], [0.1, 0.0]]),
              (1, 0): np.eye(2), (0, 0): np.ones((2, 2))}
    return PDOperator(grid, 2, 2, 2, coeffs)


@pytest.mark.parametrize("theta0, elliptic", [(math.pi, True), (1.0, True), (0.0, False)])
def test_parameter_ellipticity_constant_matches_the_pointwise_reference(theta0, elliptic):
    # one stack of 64 direction symbols times rho^n gives the point-by-point numbers; at the
    # singular theta0 = 0 the constant is taken over the other directions by both
    Q = anisotropic_two_channel_operator()
    C, ok = parameter_ellipticity_constant(Q, theta0)
    want, want_ok = pointwise_parameter_constant(Q, theta0)
    assert ok == want_ok == elliptic
    assert abs(C - want) <= 1e-12 * want


@pytest.mark.parametrize("dim, directions", [(1, 2), (2, 64)])
def test_parameter_ellipticity_builds_one_symbol_per_direction(monkeypatch, dim, directions):
    calls = {"symbol_field": 0, "_resolvent_blocks": 0}
    for name in calls:
        def counted(*args, _func=getattr(pdo, name), _name=name):
            calls[_name] += 1
            return _func(*args)
        monkeypatch.setattr(pdo, name, counted)
    parameter_ellipticity_constant(neg_laplacian(GridSpec(dim, 8, math.pi)), math.pi)
    assert calls == {"symbol_field": directions, "_resolvent_blocks": 17}


def test_frozen_at(grid1d):
    P = variable_operator(grid1d)
    idx = (grid1d.points_per_axis // 4,)
    P0 = P.frozen_at(idx)
    assert P0.is_constant_coefficient()
    for alpha, arr in P.coeffs.items():
        assert np.max(np.abs(P0.coeffs[alpha][(0,)] - arr[idx])) < 1e-15


def test_unit_directions():
    d1 = unit_directions(1, 8)
    assert d1.shape == (2, 1)
    d2 = unit_directions(2, 16)
    assert np.max(np.abs(np.linalg.norm(d2, axis=-1) - 1.0)) < 1e-12
    d3 = unit_directions(3, 10)
    assert np.max(np.abs(np.linalg.norm(d3, axis=-1) - 1.0)) < 1e-12


def test_operator_from_description(grid1d, rng):
    desc = {
        "order": 3,
        "entries": [
            {"alpha": [3], "coeff": {"token": "x", "scale": -1.0}},
            {"alpha": [2], "coeff": {"token": "x-1"}},
        ],
    }
    A = operator_from_description(grid1d, desc)
    x = grid1d.coords()[..., 0]
    assert np.max(np.abs(A.coefficient((3,))[..., 0, 0] + x)) < 1e-14
    assert np.max(np.abs(A.coefficient((2,))[..., 0, 0] - (x - 1.0))) < 1e-14


def test_operator_from_description_rejects_unknown_token(grid1d):
    desc = {"order": 1, "entries": [{"alpha": [1], "coeff": {"token": "exp"}}]}
    with pytest.raises(ValueError, match="'product'"):
        operator_from_description(grid1d, desc)


def test_operator_from_description_product_token(grid1d):
    factors = [{"token": "x"}, {"token": "x-1"}]
    desc = {"order": 1, "entries": [{"alpha": [1], "coeff": {"token": "product", "factors": factors}}]}
    A = operator_from_description(grid1d, desc)
    x = grid1d.coords()[..., 0]
    assert np.max(np.abs(A.coefficient((1,))[..., 0, 0] - x * (x - 1.0))) < 1e-14


def test_operator_from_description_reads_a_pair_as_re_plus_i_im(grid2d):
    desc = {"order": 2, "channels": 2,
            "entries": [{"alpha": [2, 0], "coeff": [[[-1, 0.5], [0, 0]], [[0, 0], [-2.5, -3]]]}]}
    A = operator_from_description(grid2d, desc)
    assert np.array_equal(A.coefficient((2, 0)), np.broadcast_to(
        np.array([[-1 + 0.5j, 0], [0, -2.5 - 3j]]), grid2d.shape + (2, 2)))


@pytest.mark.parametrize("coeff", [
    {"token": "x", "axis": 2}, {"token": "x", "scale": 1e400}, {"token": "x", "scale": [1, 0]},
    [[[1.0]]], [[[1, 0, 0]]], [[10**400]], [[math.nan]], [[None]], [[1], [1, 2]],
    functools.reduce(lambda v, _: [v], range(900), 1.0)],
    ids=["axis-past-dim", "scale-inf", "scale-pair", "pair-of-one", "pair-of-three",
         "entry-past-floats", "entry-nan", "entry-null", "ragged", "nested-900-deep"])
def test_operator_from_description_refuses_what_is_not_a_finite_number(grid2d, coeff):
    desc = {"order": 2, "entries": [{"alpha": [2, 0], "coeff": coeff}]}
    with pytest.raises(ValueError, match="finite number|integer >= 0 and < 2|pair"):
        operator_from_description(grid2d, desc)


def test_operator_order_validation(grid1d):
    with pytest.raises(ValueError):
        PDOperator(grid1d, 1, 1, 1, {(2,): np.ones((1, 1))})
    with pytest.raises(ValueError, match="negative"):
        PDOperator(grid1d, 1, 1, 1, {(-1,): np.ones((1, 1))})


@pytest.mark.parametrize("alpha", [(1.5,), (1.0,), (True,), ("1",), (0, 1)])
def test_operator_refuses_what_is_not_a_multi_index(grid1d, alpha):
    # (1.5,) once became the first derivative
    with pytest.raises(ValueError, match="not a multi-index"):
        PDOperator(grid1d, 2, 1, 1, {alpha: np.ones((1, 1))})


@pytest.mark.parametrize("theta0", [math.pi, 1.0, 0.0])
@pytest.mark.parametrize("dim", [1, 2])
def test_parameter_ellipticity_constant_coefficient_takes_one_point(monkeypatch, theta0, dim):
    # a constant-coefficient operator is measured at its first grid point: the same (C, ok),
    # bit for bit, as the test over all 32^dim points, which a variable operator takes
    grid = GridSpec(dim, 32, math.pi)
    lap = {tuple(2 * (j == axis) for j in range(dim)): -np.diag([1.0, 2.0]) for axis in range(dim)}
    coupling = {(1,) + (0,) * (dim - 1): np.array([[0.0, 0.3], [0.3j, 0.0]])}
    Q = operator_from_constant(grid, {**lap, **coupling, (0,) * dim: np.eye(2)}, order=2)
    assert Q.is_constant_coefficient()
    one_point = parameter_ellipticity_constant(Q, theta0)
    monkeypatch.setattr(pdo.PDOperator, "is_constant_coefficient", lambda self: False)
    assert one_point == parameter_ellipticity_constant(Q, theta0)
    assert one_point[1] == (theta0 != 0.0)


def per_term_sum(P, f):
    """sum_alpha C_alpha d^alpha f, each derivative by spectral_derivative: apply's oracle."""
    out = 0.0
    for alpha, coeff in P.coeffs.items():
        out = out + np.einsum("...ij,...j->...i", coeff, spectral_derivative(f, alpha).samples)
    return out


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("factor", [None, "scalar", "matrix"])
@pytest.mark.parametrize("spectrum", [False, True], ids=["field", "spectrum"])
def test_constant_apply_is_the_per_term_sum(dim, channels, order, factor, spectrum, rng):
    # P has a random constant l x l matrix at every |alpha| <= order, the zero-order term
    # included; P (m f^) is P applied to the samples of m f^
    grid = GridSpec(dim, 16 if dim == 2 else 32, math.pi)
    shape = (channels, channels)
    coeffs = {alpha: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
              for alpha in multi_indices(dim, order)}
    P = operator_from_constant(grid, coeffs, order)
    f = random_band_limited_field(grid, channels, rng)
    m = {None: None,
         "scalar": 1.0 / (1j + 4.0 + np.sum(grid.freqs() ** 2, axis=-1)),
         "matrix": rng.standard_normal(grid.shape + shape) + 0j}[factor]
    want = per_term_sum(P, f if m is None else apply_multiplier(f, m))
    got = apply(P, dft(f) if spectrum else f, m).samples
    assert P.symbol is not None
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def variable_operator_nd(grid):
    """x_0 d_0 - (1 + 0.3 cos x_0) Delta + 2 on any grid: 2 + dim terms, every term but the
    zero-order one variable."""
    x = grid.coords()[..., 0][..., None, None].astype(np.complex128)
    first = tuple(int(a == 0) for a in range(grid.dim))
    lap = neg_laplacian(grid).coeffs
    coeffs = {alpha: (1.0 + 0.3 * np.cos(x)) * c for alpha, c in lap.items()}
    return PDOperator(grid, 2, 1, 1, {**coeffs, first: x, (0,) * grid.dim: np.full((1, 1), 2.0)})


@pytest.mark.parametrize("dim", [1, 2])
def test_variable_apply_sums_one_inverse_transform_per_term_bit_for_bit(dim, rng):
    # a variable P on a spectrum, whose coefficients a scalar factor multiplies once: the sum
    # of C_alpha idft((i xi)^alpha m F), the zero-order term transformed like the others
    grid = GridSpec(dim, 16 if dim == 2 else 64, math.pi)
    P = variable_operator_nd(grid)
    F = dft(random_band_limited_field(grid, 1, rng))
    m = 1.0 / (1j + 4.0 + np.sum(grid.freqs() ** 2, axis=-1))
    want = np.zeros(grid.shape + (1,), dtype=np.complex128)
    for alpha, coeff in P.coeffs.items():
        d = idft(multiply(multiply(F, m), monomial(grid.freqs(), alpha))).samples
        want += np.einsum("...ij,...j->...i", coeff, d)
    assert P.symbol is None
    assert np.array_equal(apply(P, F, m).samples, want)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("spectrum", [False, True], ids=["field", "spectrum"])
def test_variable_apply_takes_one_inverse_transform_per_term(transform_calls, dim, spectrum, rng):
    # one idft per term (one 1-D transform per axis each), and one dft for a Field
    grid = GridSpec(dim, 16, math.pi)
    P = variable_operator_nd(grid)
    f = random_band_limited_field(grid, 1, rng)
    f = dft(f) if spectrum else f
    transform_calls.clear()
    apply(P, f)
    assert P.symbol is None and len(P.coeffs) == 2 + dim
    assert transform_calls == ["fft"] * dim * (not spectrum) + ["ifft"] * dim * len(P.coeffs)


def test_apply_checks_channels_before_it_transforms(transform_calls, grid1d, rng):
    f = random_band_limited_field(grid1d, 2, rng)
    transform_calls.clear()
    for g in (f, Field(grid1d, f.samples[..., :1])):
        with pytest.raises(ChannelMismatch):
            apply(neg_laplacian(grid1d, 3 - g.channels), g)
    assert transform_calls == []


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("channels", [1, 3])
def test_constant_apply_takes_one_inverse_transform_of_the_spectrum(
        monkeypatch, transform_calls, dim, channels, rng):
    # -Delta + d_0 + 1 on a spectrum: three or four terms, one idft of l N^m points (one 1-D
    # transform per axis), where the derivative stack inverted one row per term
    grid = GridSpec(dim, 16, math.pi)
    eye, first = np.eye(channels), tuple(int(a == 0) for a in range(dim))
    lap = neg_laplacian(grid, channels).coeffs
    P = PDOperator(grid, 2, channels, channels, {**lap, first: eye, (0,) * dim: eye})
    F = dft(random_band_limited_field(grid, channels, rng))
    points = []

    def counted(G, _idft=pdo.idft):
        points.append(G.coefficients.size)
        return _idft(G)

    monkeypatch.setattr(pdo, "idft", counted)
    transform_calls.clear()
    apply(P, F)
    assert points == [channels * grid.num_points]
    assert transform_calls == ["ifft"] * dim


def test_the_symbol_is_built_once_per_operator(monkeypatch, grid1d, rng):
    calls = []

    def counted(xi, alpha, _monomial=pdo.monomial):
        calls.append(alpha)
        return _monomial(xi, alpha)

    monkeypatch.setattr(pdo, "monomial", counted)
    P = operator_from_constant(grid1d, {(2,): -1.0, (1,): 2.0, (0,): 1.0}, 2)
    f = random_band_limited_field(grid1d, 1, rng)
    for _ in range(3):
        apply(P, f)
        apply(P, dft(f), np.ones(grid1d.shape))
    assert sorted(calls) == [(0,), (1,), (2,)]
    assert P.symbol.shape == grid1d.shape and not P.symbol.flags.writeable


@pytest.mark.parametrize("grid, desc", [
    (GridSpec(1, 64, 1e-11), {"order": 1, "entries": [{"alpha": [1], "coeff": {"token": "x"}}]}),
    (GridSpec(1, 64, math.pi),
     {"order": 2, "entries": [{"alpha": [2], "coeff": [[-1.0]]},
                              {"alpha": [0], "coeff": {"token": "x", "scale": 1e-12}}]}),
], ids=["x-d-on-a-tiny-torus", "tiny-x-token"])
def test_constancy_is_free_of_scale(grid, desc):
    # coefficients far below 1 that vary are variable: a constant operator is exactly constant
    Q = operator_from_description(grid, desc)
    assert not Q.is_constant_coefficient()
    assert Q.symbol is None
    g = random_band_limited_field(grid, 1, np.random.Generator(np.random.PCG64(0)))
    with pytest.raises(VariableCoefficients):
        solve_constant(ResolventProblem(Q, math.pi, 2.0, g))


def test_operators_are_read_only(grid1d):
    c2 = np.full(grid1d.shape + (1, 1), -1.0 + 0j)
    P = PDOperator(grid1d, 2, 1, 1, {(2,): c2})
    with pytest.raises(TypeError):
        P.coeffs[(0,)] = np.ones(grid1d.shape + (1, 1))
    with pytest.raises(ValueError, match="read-only"):
        P.coeffs[(2,)][0] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        P.coeffs = {}
    c2[0] = 5.0  # the caller's array stays its own: the operator holds a copy
    assert P.coeffs[(2,)][0, 0, 0] == -1.0

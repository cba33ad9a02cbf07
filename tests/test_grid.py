import ast
import importlib
import inspect
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellreg import resolvent
from ellreg.errors import ChannelMismatch, GridMismatch
from ellreg.grid import (
    _STACK_POINTS,
    Field,
    GridSpec,
    SpectralField,
    apply_multiplier,
    apply_multipliers,
    dft,
    field_from_function,
    idft,
    lp_norm,
    lp_norms,
    monomial,
    power_means,
    random_band_limited_field,
    spectral_derivative,
    spectral_derivatives,
    translate,
)
from ellreg.mollify import mollifier_symbol
from ellreg.pdo import apply, multi_indices, neg_laplacian


def naive_dft(f):
    """Direct O(N^2m) evaluation of the coefficient sum, the oracle for dft."""
    grid = f.grid
    coords = grid.coords().reshape(-1, grid.dim)
    samples = f.samples.reshape(-1, f.channels)
    xi = grid.freqs().reshape(-1, grid.dim)
    phases = np.exp(-1j * xi @ coords.T)
    weight = grid.spacing**grid.dim / grid.volume
    return (phases @ samples * weight).reshape(grid.shape + (f.channels,))


def test_dft_matches_direct_sum():
    grid = GridSpec(1, 16, math.pi)
    rng = np.random.Generator(np.random.PCG64(0))
    f = Field(grid, rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2)))
    oracle = naive_dft(f)
    assert np.max(np.abs(dft(f).coefficients - oracle)) < 1e-12


def test_dft_matches_direct_sum_2d():
    grid = GridSpec(2, 8, 2.0)
    rng = np.random.Generator(np.random.PCG64(1))
    f = Field(grid, rng.standard_normal((8, 8, 1)) * (1 + 0j))
    oracle = naive_dft(f)
    assert np.max(np.abs(dft(f).coefficients - oracle)) < 1e-12


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("contiguous", [True, False])
def test_transforms_leave_their_input_and_match_fftn(dim, n, contiguous):
    # dft and idft transform in place after their first step; the input stays as it was
    grid = GridSpec(dim, n, 2.0)
    rng = np.random.Generator(np.random.PCG64(dim))
    raw = rng.standard_normal(grid.shape + (6,)) + 1j * rng.standard_normal(grid.shape + (6,))
    values = np.ascontiguousarray(raw[..., :3]) if contiguous else raw[..., ::2]
    assert values.flags.c_contiguous == contiguous
    kept = values.copy()
    axes = tuple(range(dim))
    phase = grid._phase()[..., None]
    F = dft(Field(grid, values))
    assert np.array_equal(values, kept)
    assert np.array_equal(F.coefficients, np.fft.fftn(kept, axes=axes) * (phase / grid.num_points))
    f = idft(SpectralField(grid, values))
    assert np.array_equal(values, kept)
    assert np.array_equal(f.samples, np.fft.ifftn(kept * phase, axes=axes) * grid.num_points)


def test_single_mode_has_single_coefficient(grid1d):
    f = field_from_function(grid1d, lambda x: np.exp(1j * 5 * x[..., 0]))
    coeff = dft(f).coefficients[..., 0]
    k = grid1d.axis_wavenumbers()
    idx = int(np.argmin(np.abs(k - 5)))
    assert abs(coeff[idx] - 1.0) < 1e-13
    rest = np.delete(coeff, idx)
    assert np.max(np.abs(rest)) < 1e-13


def test_constant_field_spectrum(grid2d):
    f = Field(grid2d, np.broadcast_to([3.0, -1.0j], grid2d.shape + (2,)))
    coeff = dft(f).coefficients
    assert abs(coeff[0, 0, 0] - 3.0) < 1e-13
    assert abs(coeff[0, 0, 1] + 1.0j) < 1e-13
    assert np.sum(np.abs(coeff) > 1e-12) == 2


def test_roundtrip(grid2d, rng):
    f = random_band_limited_field(grid2d, 3, rng)
    back = idft(dft(f))
    scale = np.max(np.abs(f.samples))
    assert np.max(np.abs(back.samples - f.samples)) < 1e-12 * scale


@given(seed=st.integers(0, 10_000))
def test_parseval(seed):
    grid = GridSpec(1, 32, 2.5)
    rng = np.random.Generator(np.random.PCG64(seed))
    f = random_band_limited_field(grid, 2, rng)
    l2 = lp_norm(f, 2.0)
    spectral = math.sqrt(grid.volume) * np.linalg.norm(dft(f).coefficients)
    assert abs(l2 - spectral) <= 1e-10 * (1.0 + l2)


def test_lp_norm_sin_oracles():
    # closed forms on [-pi, pi): integral of sin^2 is pi, of |sin| is 4
    grid = GridSpec(1, 512, math.pi)
    f = field_from_function(grid, lambda x: np.sin(x[..., 0]))
    assert abs(lp_norm(f, 2.0) - math.sqrt(math.pi)) < 1e-10
    assert abs(lp_norm(f, 1.0) - 4.0) < 1e-4
    assert abs(lp_norm(f, math.inf) - 1.0) < 1e-10


def test_lp_norm_quadrature_against_fine_grid():
    coarse = GridSpec(1, 128, math.pi)
    fine = GridSpec(1, 1024, math.pi)
    func = lambda x: np.exp(-3.0 * x[..., 0] ** 2)
    for p in (1.0, 1.5, 4.0):
        a = lp_norm(field_from_function(coarse, func), p)
        b = lp_norm(field_from_function(fine, func), p)
        assert abs(a - b) < 1e-6 * b


def test_lp_norm_mask(grid1d):
    f = Field(grid1d, np.ones(grid1d.shape + (1,)))
    x = grid1d.coords()[..., 0]
    mask = x >= 0.0
    # half the domain: measure pi, so L^1 norm is pi
    assert abs(lp_norm(f, 1.0, mask=mask) - math.pi) < 1e-12


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, math.inf])
@pytest.mark.parametrize("channels", [1, 3])
def test_stacked_lp_norm_matches_the_per_field_loop(rng, p, channels):
    grid = GridSpec(2, 16, 2.0)
    fields = [random_band_limited_field(grid, channels, rng) for _ in range(5)]
    stack = np.stack([f.samples for f in fields], axis=-2)
    mask = grid.coords()[..., 0].real >= 0.5
    for m in (None, mask):
        got = lp_norm(stack, p, mask=m, grid=grid)
        assert got.shape == (len(fields),)
        for f, norm in zip(fields, got):
            # the per-field loop, written out: channel 2-norm, then the Riemann sum
            mag = np.linalg.norm(f.samples, axis=-1)[m if m is not None else ...]
            want = np.max(mag) if math.isinf(p) else (grid.spacing**2 * np.sum(mag**p)) ** (1 / p)
            assert abs(norm - want) <= 1e-14 * want
            assert abs(lp_norm(f, p, mask=m) - want) <= 1e-14 * want


@pytest.mark.parametrize("p", [2.0, 1e300, math.inf])
@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("c", [1e-310, 1e-200, 1e200])
def test_lp_norm_of_a_tiny_or_huge_constant(c, channels, p):
    # neither the channel 2-norm's squares nor the Riemann sum's p-th powers leave the range;
    # 1e-310 is subnormal, so its scale 2^-e is above the largest float
    grid = GridSpec(1, 64, math.pi)
    f = Field(grid, np.full(grid.shape + (channels,), c))
    want = c * math.sqrt(channels) * (2.0 * math.pi) ** (1.0 / p)
    assert abs(lp_norm(f, p) - want) <= 1e-14 * want


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 1100.0, 1e6, 1e300, math.inf])
def test_power_means_scale_each_column_by_itself(p):
    # columns of zeros, of 1e-200, of 1e200 and of 1 times the same profile
    profile = np.array([1.0, 2.0, 3.0, 0.5, 3.0])
    scales = np.array([0.0, 1e-200, 1e200, 1.0])
    (got,) = power_means(profile[:, None] * scales, 0.25, [p])
    top = profile.max()
    unit = top if math.isinf(p) else top * (0.25 * np.sum((profile / top) ** p)) ** (1.0 / p)
    assert np.allclose(got, scales * unit, rtol=1e-14, atol=0.0)


def test_power_means_round_as_the_plain_sums_at_p_1_2_inf(rng):
    # the power-of-two divisor is exact, so stacked norms keep their unscaled rounding
    values = rng.random((200, 6)) * 10.0 ** rng.uniform(-30.0, 30.0, 6)
    for p, got in zip((1.0, 2.0, math.inf), power_means(values.copy(), 0.3, (1.0, 2.0, math.inf))):
        want = values.max(axis=0) if math.isinf(p) else (0.3 * (values**p).sum(axis=0)) ** (1 / p)
        assert np.array_equal(got, want)


def test_lp_norms_reduce_one_magnitude_under_every_exponent(rng):
    grid = GridSpec(2, 16, 2.0)
    stack = np.stack([random_band_limited_field(grid, 2, rng).samples for _ in range(3)], axis=-2)
    ps = [1.0, 2.0, 1.5, math.inf]
    for p, norms in zip(ps, lp_norms(stack, ps, grid=grid)):
        assert np.array_equal(norms, lp_norm(stack, p, grid=grid))


def test_spectral_derivative_oracle(grid1d):
    f = field_from_function(grid1d, lambda x: np.sin(3.0 * x[..., 0]))
    df = spectral_derivative(f, (1,))
    exact = field_from_function(grid1d, lambda x: 3.0 * np.cos(3.0 * x[..., 0]))
    assert np.max(np.abs(df.samples - exact.samples)) < 1e-11


def test_spectral_derivative_2d(grid2d):
    f = field_from_function(
        grid2d, lambda x: np.sin(2.0 * x[..., 0]) * np.cos(x[..., 1])
    )
    d = spectral_derivative(f, (1, 1))
    exact = field_from_function(
        grid2d, lambda x: -2.0 * np.cos(2.0 * x[..., 0]) * np.sin(x[..., 1])
    )
    assert np.max(np.abs(d.samples - exact.samples)) < 1e-10


def test_translate_by_grid_step_is_roll(grid1d, rng):
    f = random_band_limited_field(grid1d, 1, rng)
    shifted = translate(f, [grid1d.spacing])
    rolled = np.roll(f.samples, -1, axis=0)
    assert np.max(np.abs(shifted.samples - rolled)) < 1e-10


@given(seed=st.integers(0, 10_000), h=st.floats(-2.0, 2.0))
def test_translate_is_an_isometry(seed, h):
    grid = GridSpec(1, 32, math.pi)
    rng = np.random.Generator(np.random.PCG64(seed))
    f = random_band_limited_field(grid, 1, rng)
    shifted = translate(f, [h])
    assert abs(lp_norm(shifted, 2.0) - lp_norm(f, 2.0)) < 1e-9 * (1 + lp_norm(f, 2.0))


def test_field_arithmetic_and_mismatches(grid1d, grid2d, rng):
    f = random_band_limited_field(grid1d, 1, rng)
    g = random_band_limited_field(grid1d, 1, rng)
    s = f + g - g
    assert np.max(np.abs(s.samples - f.samples)) < 1e-12
    other = random_band_limited_field(grid2d, 1, rng)
    with pytest.raises(GridMismatch):
        f + other
    h2 = random_band_limited_field(grid1d, 2, rng)
    with pytest.raises(ChannelMismatch):
        f + h2


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 8, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 7, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 8, -1.0)
    with pytest.raises(ValueError):
        Field(GridSpec(1, 8, 1.0), np.zeros((7, 1)))


def test_spectral_field_shape_check(grid1d):
    with pytest.raises(ValueError):
        SpectralField(grid1d, np.zeros((5, 1)))


@pytest.mark.parametrize("half_period", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_grid_rejects_non_finite_or_non_positive_half_period(half_period):
    with pytest.raises(ValueError):
        GridSpec(1, 16, half_period)


def test_lattice_is_cached_read_only():
    grid = GridSpec(2, 16, 2.0)
    xi = grid.freqs()
    assert xi is grid.freqs() and grid._phase() is grid._phase()
    # an equal grid is the same cache key
    assert GridSpec(2, 16, 2.0).freqs() is xi
    for arr in (xi, grid._phase()):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_multiplier_stack_matches_one_at_a_time(rng):
    grid = GridSpec(2, 64, math.pi)
    f = random_band_limited_field(grid, 2, rng)
    r2 = np.sum(grid.freqs() ** 2, axis=-1)
    ts = np.linspace(0.0, 0.2, 40)
    stacks = list(apply_multipliers(f, lambda rows: np.exp(-rows * r2[..., None]), ts))
    # 40 two-channel fields on 64^2 need several stacked inverse transforms
    assert len(ts) * f.samples.size > 2 * _STACK_POINTS and len(stacks) > 2
    got = np.concatenate(stacks, axis=-2)
    assert got.shape == grid.shape + (len(ts), 2)
    for j, t in enumerate(ts):
        want = apply_multiplier(f, np.exp(-t * r2)).samples
        assert np.max(np.abs(got[..., j, :] - want)) <= 1e-14 * np.max(np.abs(want))


def test_spectral_derivatives_match_single_derivatives(grid2d, rng):
    f = random_band_limited_field(grid2d, 1, rng)
    alphas = [(0, 0), (1, 0), (0, 2), (2, 1)]
    (stack,) = spectral_derivatives(f, alphas)
    for j, alpha in enumerate(alphas):
        want = spectral_derivative(f, alpha).samples
        assert np.max(np.abs(stack[..., j, :] - want)) <= 1e-13 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("dim,n", [(1, 64), (1, 96), (2, 32), (2, 48), (3, 16)])
@pytest.mark.parametrize("channels", [1, 3])
def test_real_derivative_stacks_match_ifftn_of_the_whole_lattice_product(dim, n, channels):
    # white noise carries every Nyquist bin; odd derivatives are imaginary there
    grid = GridSpec(dim, n, 2.5)
    axes, phase = tuple(range(dim)), grid._phase()[..., None]
    noise = np.random.Generator(np.random.PCG64(n)).standard_normal(grid.shape + (channels,))
    f = Field(grid, noise)
    alphas = multi_indices(dim, 2)
    got = np.concatenate(list(spectral_derivatives(f, alphas)), axis=-2)
    m = np.stack([monomial(grid.freqs(), a) for a in alphas], -1)
    F = np.fft.fftn(f.samples, axes=axes) * (phase / grid.num_points)
    want = np.fft.ifftn(F[..., None, :] * (m * phase)[..., None], axes=axes) * grid.num_points
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(want.imag)) > 1e-3 * np.max(np.abs(want))


def test_pure_nyquist_mode_keeps_its_imaginary_derivative():
    # exp(i xi x_0) at xi = -(pi/L) N/2 samples to the real (-1)^j0; the lattice takes
    # i xi_0 there, so its (1, 0) derivative is the purely imaginary i xi_0 f
    grid = GridSpec(2, 16, 2.0)
    sign = (-1.0) ** np.arange(16)
    f = Field(grid, np.broadcast_to(sign[:, None, None], (16, 16, 1)))
    assert dft(f).real
    d = spectral_derivative(f, (1, 0)).samples
    want = 1j * (-np.pi / grid.half_period * 8) * f.samples
    assert np.max(np.abs(d - want)) <= 1e-13 * np.max(np.abs(want))


def test_real_fields_under_resolvent_and_mollifier_symbols_take_the_complex_route():
    # those symbols are lattice arrays, not Hermitian families: a spectrum marked real
    # gives bit for bit what the same coefficients unmarked give
    grid = GridSpec(2, 32, math.pi)
    smooth = random_band_limited_field(grid, 1, np.random.Generator(np.random.PCG64(3)))
    f = Field(grid, smooth.samples.real)
    F = dft(f)
    assert F.real
    unmarked = SpectralField(grid, F.coefficients)
    Q = neg_laplacian(grid)
    minv = resolvent._resolvent_multiplier(Q, 2.0, 0.5)
    for symbol in (minv, mollifier_symbol(grid, 0.5)):
        # as a factor of a Hermitian derivative stack, and as the multiplier itself
        assert np.array_equal(apply(Q, F, symbol).samples, apply(Q, unmarked, symbol).samples)
        build = lambda rows: np.expand_dims(rows[0], grid.dim)
        (got,), (want,) = (apply_multipliers(g, build, [symbol]) for g in (F, unmarked))
        assert np.array_equal(got, want)


@pytest.mark.parametrize(
    "name", ["besov", "pdo", "resolvent", "mollify", "localize", "casework", "cli"]
)
def test_fourier_side_work_goes_through_the_multiplier_path(name):
    # transforms and (i xi)^alpha monomials live in ellreg.grid only
    source = inspect.getsource(importlib.import_module(f"ellreg.{name}"))
    assert "fft" not in source
    assert not re.search(r"1j\s*\*\s*xi", source)


# Public names that no code of the package or of perfbench names, each kept for a reason
_REACHED_ONLY_FROM_TESTS = {
    "second_difference_seminorm": "perfbench's oracle interface, timed there by its name",
    "translate": "the translate oracle of the band-limited multiplier path",
    "bessel_lift": "the oracle of test_fused_besov_norm_matches_its_parts",
    "w1p_inclusion_check": "criterion 8, to be run by the example-a experiment",
}


def test_every_public_name_is_reached_from_the_program():
    # a top-level public function or class of src/ellreg counts as reached when a
    # name or an attribute in src/ellreg (__init__.py aside) or in perfbench spells it
    root = pathlib.Path(__file__).resolve().parent.parent
    package = [f for f in sorted((root / "src" / "ellreg").glob("*.py")) if f.name != "__init__.py"]
    public, reached = set(), set()
    for path in package + sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path in package:
            public |= {node.name for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reached.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
    unreached, allowed = public - reached, set(_REACHED_ONLY_FROM_TESTS)
    assert not unreached - allowed, f"reached only from tests: {sorted(unreached - allowed)}"
    assert not allowed - unreached, f"stale allowlist entries: {sorted(allowed - unreached)}"

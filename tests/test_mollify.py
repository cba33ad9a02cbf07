import importlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellreg.cli import _fixture_field, _sanitize, _window_mask
from ellreg.errors import EpsilonOutOfRange
from ellreg.grid import (
    Field,
    GridSpec,
    dft,
    field_from_function,
    lp_norm,
    random_band_limited_field,
    translate,
)
from ellreg.mollify import (
    ErrorTable,
    admissible_eps_sequence,
    kernel_field,
    log2_rates,
    mollifier_convergence_experiment,
    mollifier_convergence_tables,
    mollifier_symbol,
    mollify,
    ratios,
    rel_changes,
)
from ellreg.pdo import neg_laplacian, operator_from_constant
from ellreg.profiles import radial_window

mollify_module = importlib.import_module("ellreg.mollify")  # the package's `mollify` is the function


def test_kernel_unit_mass(grid1d):
    h = kernel_field(grid1d, 0.5)
    mass = float(np.sum(h.samples.real)) * grid1d.spacing
    assert abs(mass - 1.0) < 1e-12


def test_kernel_compact_support(grid1d):
    h = kernel_field(grid1d, 0.5)
    x = grid1d.coords()[..., 0]
    assert np.all(h.samples[np.abs(x) >= 0.5] == 0.0)


def test_mollify_preserves_constants(grid1d):
    f = Field(grid1d, np.full(grid1d.shape + (1,), 2.5))
    out = mollify(f, 0.4)
    assert np.max(np.abs(out.samples - 2.5)) < 1e-12


def test_mollify_eps_range(grid1d, rng):
    f = random_band_limited_field(grid1d, 1, rng)
    with pytest.raises(EpsilonOutOfRange):
        mollify(f, 0.5 * grid1d.spacing)
    with pytest.raises(EpsilonOutOfRange):
        mollify(f, grid1d.half_period)


def test_mollifier_symbol_is_read_only(grid1d):
    symbol = mollifier_symbol(grid1d, 0.5)
    assert not symbol.flags.writeable
    with pytest.raises(ValueError):
        symbol[0] = 0.0


def test_mollify_is_the_same_with_a_cold_and_a_warm_memo(grid1d, rng):
    f = random_band_limited_field(grid1d, 1, rng)
    mollify_module._symbol.cache_clear()
    cold = mollify(f, 0.5).samples.tobytes()
    assert mollify_module._symbol.cache_info().currsize == 1
    assert mollify(f, 0.5).samples.tobytes() == cold
    assert mollify_module._symbol.cache_info().hits >= 1


@given(seed=st.integers(0, 5000))
def test_mollify_sup_contraction(seed):
    # positive unit-mass kernel: discrete convolution cannot raise the max
    grid = GridSpec(1, 64, math.pi)
    rng = np.random.Generator(np.random.PCG64(seed))
    f = random_band_limited_field(grid, 1, rng)
    out = mollify(f, 0.5)
    assert lp_norm(out, math.inf) <= lp_norm(f, math.inf) * (1.0 + 1e-12)


def test_mollify_commutes_with_translate(grid1d, rng):
    f = random_band_limited_field(grid1d, 1, rng)
    h = [0.7]
    a = mollify(translate(f, h), 0.4)
    b = translate(mollify(f, 0.4), h)
    scale = 1.0 + np.max(np.abs(a.samples))
    assert np.max(np.abs(a.samples - b.samples)) < 1e-10 * scale


def test_mollify_linear(grid1d, rng):
    f = random_band_limited_field(grid1d, 1, rng)
    g = random_band_limited_field(grid1d, 1, rng)
    lhs = mollify(f + g, 0.4)
    rhs = mollify(f, 0.4) + mollify(g, 0.4)
    assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-11


def test_admissible_eps_sequence(grid1d):
    seq = admissible_eps_sequence(grid1d, count=8)
    assert seq[0] == grid1d.half_period / 8.0
    assert all(b == a / 2.0 for a, b in zip(seq, seq[1:]))
    assert all(e >= 2.0 * grid1d.spacing for e in seq)


def test_error_table_diagnostics():
    table = ErrorTable("L2(window)", rows=[{"eps": 0.4, "error": 1.0}, {"eps": 0.2, "error": 0.2}])
    assert table.final_over_first == 0.2
    assert table.converging
    assert abs(table.rates()[0] - math.log2(5.0)) < 1e-12
    # the trajectory record, by hand
    assert ratios([2.0, 3.0, 1.5]) == [1.5, 0.5]
    assert rel_changes([2.0, 3.0, 1.5]) == [0.5, 0.5]
    assert log2_rates([4.0, 1.0, 2.0]) == [2.0, -1.0]
    assert ratios([1.0]) == rel_changes([1.0]) == log2_rates([1.0]) == []
    # a zero error has no rate: inf, which results.json writes as "inf"
    table.rows.append({"eps": 0.1, "error": 0.0})
    assert table.rates()[1] == math.inf
    assert _sanitize(table.as_dict())["rates"][1] == "inf"


def test_smooth_data_converges():
    grid = GridSpec(1, 1024, math.pi)
    f = field_from_function(grid, lambda x: np.exp(-(x[..., 0] ** 2)))
    w = radial_window(grid, 1.0, 2.0)
    f = Field(grid, f.samples * w[..., None])
    mask = np.abs(grid.coords()[..., 0]) <= grid.half_period / 2.0
    P = operator_from_constant(grid, {(1,): 1.0}, order=1)
    eps = admissible_eps_sequence(grid, count=5)
    table = mollifier_convergence_experiment(P, f, 2.0, eps, mask)
    assert table.converging
    # symmetric kernel: measured order approaches two
    assert table.rates()[-1] > 1.7


def test_uniform_experiment_matches_sup_norm():
    grid = GridSpec(1, 512, math.pi)
    f = field_from_function(grid, lambda x: np.sin(x[..., 0]))
    mask = np.ones(grid.shape, dtype=bool)
    P = operator_from_constant(grid, {(0,): 1.0}, order=0)
    eps = admissible_eps_sequence(grid, count=3)
    table = mollifier_convergence_experiment(P, f, math.inf, eps, mask)
    assert table.norm_kind == "Linf(window)"
    for row in table.rows:
        direct = lp_norm(mollify(f, row["eps"]) - f, math.inf)
        assert abs(row["error"] - direct) < 1e-12


@pytest.mark.parametrize("order", [0, 1, 2])
def test_sweep_costs_one_transform_of_f_and_two_per_eps(order, transform_calls):
    grid = GridSpec(1, 256, math.pi)
    f = field_from_function(grid, lambda x: np.exp(-(x[..., 0] ** 2)))
    P = operator_from_constant(grid, {(order,): 1.0}, order=order)
    eps = admissible_eps_sequence(grid, count=4)
    mask = np.ones(grid.shape, dtype=bool)
    # cold: per eps one transform of the kernel, which the symbol memo keeps, and one inverse
    transform_calls.clear()
    mollifier_convergence_experiment(P, f, 2.0, eps, mask)
    assert len(transform_calls) == 1 + 2 * len(eps) == 9
    # warm: the kernels' symbols are built, so per eps only the inverse
    transform_calls.clear()
    mollifier_convergence_experiment(P, f, 2.0, eps, mask)
    assert len(transform_calls) == 1 + len(eps) == 5
    # the exponent-list sweep, warm: per eps one inverse, reduced under every p
    transform_calls.clear()
    mollifier_convergence_tables(P, f, [1.0, 2.0, math.inf], eps, mask)
    assert len(transform_calls) == 1 + len(eps) == 5


def test_list_sweep_equals_the_one_operator_one_exponent_sweeps():
    grid = GridSpec(1, 256, math.pi)
    f = _fixture_field(grid, "kink")
    mask = _window_mask(grid)
    eps = admissible_eps_sequence(grid, count=4)
    ops = [operator_from_constant(grid, {(0,): 1.0}, order=0),
           operator_from_constant(grid, {(1,): 1.0}, order=1),
           operator_from_constant(grid, {(2,): -1.0}, order=2)]
    ps = [1.0, 2.0, math.inf]
    for P in ops:
        tables = mollifier_convergence_tables(P, f, ps, eps, mask)
        assert tables == [mollifier_convergence_experiment(P, f, p, eps, mask) for p in ps]


PI_LONG = 4.0 * np.arctan(np.longdouble(1.0))


def _long_double_sweep(F, symbol, grid, eps_seq, mask):
    """L^1(mask) norms of idft(symbol (K_eps - 1) F) with every sum taken in long double.

    K_eps is the explicit DFT sum of the kernel samples; the spectrum F is given.
    """
    n = grid.points_per_axis
    j = np.arange(n)
    angle = (2.0 * PI_LONG / n) * (np.outer(j, j) % n)
    cos, sin = np.cos(angle), np.sin(angle)
    phase = (-1.0) ** (grid.axis_wavenumbers() % 2)  # the grid starts at x = -L
    f_re, f_im = F.real.astype(np.longdouble), F.imag.astype(np.longdouble)
    norms = []
    for eps in eps_seq:
        h = kernel_field(grid, eps).samples[:, 0].real.astype(np.longdouble)
        k_re = grid.spacing * phase * (cos @ h) - 1.0
        k_im = -grid.spacing * phase * (sin @ h)
        c_re = phase * symbol * (k_re * f_re - k_im * f_im)
        c_im = phase * symbol * (k_re * f_im + k_im * f_re)
        e_re, e_im = cos @ c_re - sin @ c_im, sin @ c_re + cos @ c_im
        norms.append(float(grid.spacing * np.sum(np.hypot(e_re, e_im)[mask])))
    return norms


def test_sweep_errors_match_a_long_double_reference():
    # at small eps P f_eps - P f is far smaller than P f: formed as P (K_eps - 1) dft(f), not
    # as a difference of two applied fields, it carries only rounding of its own size.  The
    # reference shares dft(f) and takes every sum after it in long double.
    grid = GridSpec(1, 512, math.pi)
    f = _fixture_field(grid, "cubic-kink")
    mask = _window_mask(grid)
    eps = admissible_eps_sequence(grid, count=6)  # the CLI's sweep: five eps at N = 512
    table = mollifier_convergence_experiment(neg_laplacian(grid), f, 1.0, eps, mask)
    xi = grid.axis_wavenumbers() * (PI_LONG / np.longdouble(grid.half_period))
    expected = _long_double_sweep(dft(f).coefficients[:, 0], xi**2, grid, eps, mask)
    for got, want in zip(table.errors(), expected):
        assert abs(got - want) <= 1e-13 * want

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ellreg.errors import EpsilonOutOfRange
from ellreg.grid import (
    Field,
    GridSpec,
    field_from_function,
    lp_norm,
    random_band_limited_field,
    translate,
)
from ellreg.mollify import (
    ErrorTable,
    admissible_eps_sequence,
    kernel_field,
    mollifier_convergence_experiment,
    mollify,
    uniform_convergence_experiment,
)
from ellreg.pdo import operator_from_constant
from ellreg.profiles import radial_window


def test_kernel_unit_mass(grid1d):
    h = kernel_field(grid1d, 0.5)
    mass = float(np.sum(h.samples.real)) * grid1d.spacing
    assert abs(mass - 1.0) < 1e-12


def test_kernel_compact_support(grid1d):
    h = kernel_field(grid1d, 0.5)
    x = grid1d.coords().real[..., 0]
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
    table = ErrorTable(rows=[{"eps": 0.4, "error": 1.0}, {"eps": 0.2, "error": 0.2}])
    assert table.final_over_first == 0.2
    assert table.converging
    assert abs(table.rates()[0] - math.log2(5.0)) < 1e-12


def test_smooth_data_converges():
    grid = GridSpec(1, 1024, math.pi)
    f = field_from_function(grid, lambda x: np.exp(-(x[..., 0] ** 2)))
    w = radial_window(grid, 1.0, 2.0).samples[..., 0].real
    f = Field(grid, f.samples * w[..., None])
    mask = np.abs(grid.coords().real[..., 0]) <= grid.half_period / 2.0
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
    table = uniform_convergence_experiment(P, f, eps, mask)
    for row in table.rows:
        direct = lp_norm(mollify(f, row["eps"]) - f, math.inf)
        assert abs(row["error"] - direct) < 1e-12


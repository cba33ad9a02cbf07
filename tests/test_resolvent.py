import math

import numpy as np
import pytest

from ellreg import besov
from ellreg.errors import NotContracting, SingularSymbol, SupportViolation, ZeroRHS
from ellreg.grid import (
    Field,
    GridSpec,
    SpectralField,
    dft,
    idft,
    lp_norm,
    random_band_limited_field,
)
from ellreg.pdo import PDOperator, apply, neg_laplacian, operator_from_constant
from ellreg.profiles import box_window
from ellreg.resolvent import (
    ResolventProblem,
    _fixed_point,
    _spectral_parameter,
    _l2,
    apriori_ratios,
    residual,
    solve_constant,
    solve_frozen_localized,
    solve_neumann_lower_order,
)


def neg_laplacian_problem(grid, r, rng):
    Q = neg_laplacian(grid)
    g = random_band_limited_field(grid, 1, rng)
    return ResolventProblem(Q, math.pi, r, g)


def test_constant_solve_matches_per_mode_closed_form(grid1d, rng):
    problem = neg_laplacian_problem(grid1d, 8.0, rng)
    report = solve_constant(problem)
    # oracle: for -d^2 the solution divides each coefficient by -(r^2 + xi^2)
    xi = grid1d.freqs()[..., 0]
    ghat = dft(problem.g).coefficients[..., 0]
    expected = ghat / (-(64.0 + xi**2))
    uhat = dft(report.u).coefficients[..., 0]
    assert np.max(np.abs(uhat - expected)) < 1e-10 * (1 + np.max(np.abs(expected)))
    assert report.residual_linf < 1e-9 * (1.0 + lp_norm(problem.g, math.inf))


def test_constant_solve_2d(grid2d, rng):
    problem = neg_laplacian_problem(grid2d, 4.0, rng)
    report = solve_constant(problem)
    assert report.residual_linf < 1e-9 * (1.0 + lp_norm(problem.g, math.inf))


def test_residual_detects_wrong_solution(grid1d, rng):
    problem = neg_laplacian_problem(grid1d, 8.0, rng)
    wrong = random_band_limited_field(grid1d, 1, rng)
    assert residual(problem, wrong) > 1e-3


def test_constant_solve_rejects_variable_coefficients(grid1d, rng):
    x = grid1d.coords()[..., 0]
    coeff = -(1.0 + 0.3 * np.cos(x))[..., None, None].astype(np.complex128)
    Q = PDOperator(grid1d, 2, 1, 1, {(2,): coeff})
    g = random_band_limited_field(grid1d, 1, rng)
    with pytest.raises(ValueError):
        solve_constant(ResolventProblem(Q, math.pi, 8.0, g))


def test_singular_symbol_raises(grid1d, rng):
    # theta0 = 0 puts r^2 on the symbol's range: r = |xi| = 4 is a lattice hit
    Q = neg_laplacian(grid1d)
    g = random_band_limited_field(grid1d, 1, rng)
    with pytest.raises(SingularSymbol):
        solve_constant(ResolventProblem(Q, 0.0, 4.0, g))


def test_singularity_guard_does_not_depend_on_channel_count(rng):
    # lambda = -1e-5: the 3x3 block at xi = 0 has det -1e-15 but is well conditioned
    grid = GridSpec(1, 128, math.pi)
    r = math.sqrt(1e-5)
    g = random_band_limited_field(grid, 1, rng)
    g3 = Field(grid, g.samples * np.array([1.0, -2.0, 0.5]))
    one = solve_constant(ResolventProblem(neg_laplacian(grid), math.pi, r, g))
    three = solve_constant(ResolventProblem(neg_laplacian(grid, channels=3), math.pi, r, g3))
    expected = one.u.samples * np.array([1.0, -2.0, 0.5])
    assert np.max(np.abs(three.u.samples - expected)) <= 1e-12 * np.max(np.abs(expected))
    assert three.residual_linf < 1e-6


def test_neumann_matches_full_symbol_solve(grid1d, rng):
    Q = operator_from_constant(grid1d, {(2,): -1.0, (0,): 1.0}, order=2)
    g = random_band_limited_field(grid1d, 1, rng)
    problem = ResolventProblem(Q, math.pi, 10.0, g)
    direct = solve_constant(problem)
    iterated = solve_neumann_lower_order(problem)
    scale = 1.0 + np.max(np.abs(direct.u.samples))
    assert np.max(np.abs(direct.u.samples - iterated.u.samples)) < 1e-8 * scale
    assert iterated.residual_linf < 1e-8 * (1.0 + lp_norm(g, math.inf))


def test_three_channel_neumann_matches_the_exact_solve(grid1d, rng):
    # constant B d + C lower-order matrices: the iteration applies the 3x3 A^{-1} to dft(h)
    A = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
    B, C = 0.3 * rng.standard_normal((3, 3)), 0.3 * rng.standard_normal((3, 3))
    Q = operator_from_constant(grid1d, {(2,): -(A + A.T) / 2.0, (1,): B, (0,): C}, order=2)
    g = random_band_limited_field(grid1d, 3, rng)
    problem = ResolventProblem(Q, math.pi, 8.0, g)
    direct = solve_constant(problem)
    iterated = solve_neumann_lower_order(problem)
    assert iterated.iterations > 3
    scale = np.max(np.abs(direct.u.samples))
    assert np.max(np.abs(iterated.u.samples - direct.u.samples)) <= 1e-12 * scale


def test_neumann_without_lower_order_part_is_the_exact_solve(grid1d, rng):
    problem = neg_laplacian_problem(grid1d, 8.0, rng)
    direct = solve_constant(problem)
    iterated = solve_neumann_lower_order(problem)
    assert iterated.iterations == 0 and iterated.contraction_estimate is None
    assert np.array_equal(iterated.u.samples, direct.u.samples)


def test_frozen_solve_of_a_constant_operator_is_the_exact_solve():
    grid = GridSpec(1, 256, math.pi)
    delta = math.pi / 8.0
    g = Field(grid, box_window(grid, [0.0], 0.4 * delta, 0.9 * delta)[..., None])
    problem = ResolventProblem(neg_laplacian(grid), math.pi, 8.0, g)
    frozen = solve_frozen_localized(problem, (grid.points_per_axis // 2,), delta)
    assert frozen.iterations == 0 and frozen.contraction_estimate is None
    assert np.array_equal(frozen.u.samples, solve_constant(problem).u.samples)


def test_neumann_contraction_scales_inverse_linearly_for_drift(rng):
    # first-order lower term: per-step contraction decays like 1/r; the
    # lattice must resolve frequencies near r, where the ratio peaks
    grid = GridSpec(1, 256, math.pi)
    Q = operator_from_constant(grid, {(2,): -1.0, (1,): 2.0}, order=2)
    g = random_band_limited_field(grid, 1, rng)
    products = []
    for r in (10.0, 20.0, 40.0):
        rep = solve_neumann_lower_order(ResolventProblem(Q, math.pi, r, g))
        products.append(rep.contraction_estimate * r)
    mean = sum(products) / len(products)
    assert all(abs(p / mean - 1.0) < 0.30 for p in products)


def test_constant_neumann_solve_costs_four_transforms(rng, transform_calls):
    # D A^{-1} of a constant D is one lattice multiplier, so the steps take no transform: one
    # forward transform of g, one inverse of A^{-1} H and the residual's two, at any iteration count
    grid = GridSpec(1, 256, math.pi)
    Q = operator_from_constant(grid, {(2,): -1.0, (1,): 2.0}, order=2)
    g = random_band_limited_field(grid, 1, rng)
    transform_calls.clear()
    report = solve_neumann_lower_order(ResolventProblem(Q, math.pi, 10.0, g))
    assert report.iterations > 3
    assert len(transform_calls) == 4


def test_constant_neumann_solve_agrees_with_the_exact_solve(rng):
    # the multiplier route of a constant D against the direct inverse of the full symbol
    grid = GridSpec(1, 256, math.pi)
    Q = operator_from_constant(grid, {(2,): -1.0, (1,): 2.0, (0,): 0.5}, order=2)
    problem = ResolventProblem(Q, math.pi, 10.0, random_band_limited_field(grid, 1, rng))
    direct, iterated = solve_constant(problem), solve_neumann_lower_order(problem)
    assert iterated.iterations > 3
    scale = np.max(np.abs(direct.u.samples))
    assert np.max(np.abs(iterated.u.samples - direct.u.samples)) <= 1e-12 * scale


@pytest.mark.parametrize("dim, channels", [(1, 1), (2, 3)])
def test_parseval_increment_is_the_sample_l2_norm(rng, dim, channels):
    grid = GridSpec(dim, 32, math.pi)
    shape = grid.shape + (channels,)
    dH = SpectralField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    want = lp_norm(idft(dH), 2.0)
    assert abs(_l2(dH) - want) <= 1e-12 * want


def test_first_neumann_increment_is_the_l2_norm_of_d_applied_to_the_exact_solve(rng):
    # H1 - H0 = D A^{-1} g, measured on the lattice; the oracle applies D to A^{-1} g on samples
    grid = GridSpec(1, 256, math.pi)
    Q = operator_from_constant(grid, {(2,): -1.0, (1,): 2.0}, order=2)
    A = operator_from_constant(grid, {(2,): -1.0}, order=2)
    D = operator_from_constant(grid, {(1,): 2.0}, order=1)
    g = random_band_limited_field(grid, 1, rng)
    report = solve_neumann_lower_order(ResolventProblem(Q, math.pi, 10.0, g))
    want = lp_norm(apply(D, solve_constant(ResolventProblem(A, math.pi, 10.0, g)).u), 2.0)
    assert abs(report.increments[0] - want) <= 1e-12 * want


def test_neumann_not_contracting_at_small_r(grid1d, rng):
    Q = operator_from_constant(grid1d, {(2,): -1.0, (0,): 1.0}, order=2)
    g = random_band_limited_field(grid1d, 1, rng)
    with pytest.raises(NotContracting) as info:
        solve_neumann_lower_order(ResolventProblem(Q, math.pi, 1.0, g))
    history = info.value.increments
    assert len(history) >= 3 and history[-1] / history[-2] >= 1.0 - 1e-3


def variable_problem(grid, delta, r=8.0):
    x = grid.coords()[..., 0]
    coeff = -(1.0 + 0.3 * np.cos(x))[..., None, None].astype(np.complex128)
    Q = PDOperator(grid, 2, 1, 1, {(2,): coeff})
    g = Field(grid, box_window(grid, [0.0], 0.4 * delta, 0.9 * delta)[..., None])
    return ResolventProblem(Q, math.pi, r, g)


def test_frozen_localized_solve():
    grid = GridSpec(1, 256, math.pi)
    delta = math.pi / 8.0
    problem = variable_problem(grid, delta)
    x0 = (grid.points_per_axis // 2,)
    report = solve_frozen_localized(problem, x0, delta)
    assert report.residual_linf < 1e-8
    assert report.contraction_estimate < 0.5


def test_frozen_step_costs_two_transforms(transform_calls):
    grid = GridSpec(1, 256, math.pi)
    delta = math.pi / 8.0
    problem = variable_problem(grid, delta)
    transform_calls.clear()
    report = solve_frozen_localized(problem, (grid.points_per_axis // 2,), delta)
    assert 2 * report.iterations <= len(transform_calls) <= 2 * report.iterations + 6


def test_frozen_localized_rejects_leaking_data():
    grid = GridSpec(1, 256, math.pi)
    delta = math.pi / 8.0
    problem = variable_problem(grid, delta)
    wide = Field(grid, box_window(grid, [0.0], delta, 2.5 * delta)[..., None])
    bad = ResolventProblem(problem.Q, math.pi, 8.0, wide)
    with pytest.raises(SupportViolation):
        solve_frozen_localized(bad, (grid.points_per_axis // 2,), delta)


def test_frozen_localized_refuses_a_poor_frozen_model():
    # the coefficient 1.1 - cos x is 0.1 at x0 = 0 but reaches 1.1 - cos(pi) on
    # the cutoff's support, so the frozen correction outweighs the frozen operator
    grid = GridSpec(1, 64, math.pi)
    delta = math.pi / 2.0
    coeff = -(1.1 - np.cos(grid.coords()[..., 0]))[..., None, None]
    Q = PDOperator(grid, 2, 1, 1, {(2,): coeff})
    g = Field(grid, box_window(grid, [0.0], 0.4 * delta, 0.9 * delta)[..., None])
    with pytest.raises(NotContracting) as info:
        solve_frozen_localized(ResolventProblem(Q, math.pi, 2.0, g), (32,), delta)
    assert info.value.contraction > 1.0


def constant_spectrum(grid, value):
    return SpectralField(grid, np.full(grid.shape + (1,), value, dtype=np.complex128))


def test_fixed_point_converges_at_the_step_contraction(grid1d):
    # x <- g + x/2 from g: the iterates 2 g (1 - 2^-(k+1)) and the corrections' increments
    # g / 2^k are exact in binary, so every increment ratio is exactly 1/2
    g = constant_spectrum(grid1d, 1.0)
    x, contraction, increments = _fixed_point(
        lambda x: SpectralField(grid1d, 0.5 * x.coefficients), g, 1e-10, 200, "halving")
    iterations = len(increments)
    assert contraction == 0.5
    assert all(b == a / 2.0 for a, b in zip(increments, increments[1:]))
    assert np.max(np.abs(x.coefficients - 2.0)) <= 1e-9
    # stops at the first increment 2^-k ||g|| below 1e-10 (1 + ||x||)
    norm_g = _l2(g)
    assert 2.0 ** -iterations * norm_g <= 1e-10 * (1.0 + 2.0 * norm_g)
    assert 2.0 ** -(iterations - 1) * norm_g > 1e-10 * (1.0 + 2.0 * norm_g)


def test_fixed_point_refuses_a_doubling_step_at_step_three(grid1d):
    calls = []

    def doubling(x):
        calls.append(x)
        return SpectralField(grid1d, 2.0 * x.coefficients)

    one = constant_spectrum(grid1d, 1.0)
    with pytest.raises(NotContracting, match="doubling: not contracting") as info:
        _fixed_point(doubling, one, 1e-12, 200, "doubling")
    assert len(calls) == 3
    assert info.value.contraction == 2.0


def test_fixed_point_refuses_when_max_iter_runs_out(grid1d):
    g = constant_spectrum(grid1d, 1.0)
    with pytest.raises(NotContracting, match="no convergence within 2 iterations") as info:
        _fixed_point(lambda x: SpectralField(grid1d, 0.9 * x.coefficients), g, 1e-12, 2, "slow")
    assert abs(info.value.contraction - 0.9) < 1e-12


def test_contraction_estimate_is_the_closed_form_increment_ratio():
    # -d^2 + 1 by Neumann: A = -d^2 is inverted exactly and D = 1, so the k-th increment is
    # ||M^k G|| with M = 1 / (lambda - xi^2), and the estimate after K steps is the ratio
    # ||M^K G|| / ||M^(K-1) G||.  Increments taken between iterates carried G's rounding,
    # 7.6e-4 off at worst here; the corrections' own differences stay within 1.5e-5
    grid = GridSpec(1, 1024, math.pi)
    Q = operator_from_constant(grid, {(2,): -1.0, (0,): 1.0}, order=2)
    for r in (6.0, 12.0):
        m = 1.0 / (r**2 * np.exp(1j * math.pi) - grid.freqs()[..., 0] ** 2)
        for seed in range(8):
            g = random_band_limited_field(grid, 1, np.random.Generator(np.random.PCG64(seed)))
            report = solve_neumann_lower_order(ResolventProblem(Q, math.pi, r, g))
            c = dft(g).coefficients[..., 0] * m ** (report.iterations - 1)
            want = np.linalg.norm(m * c) / np.linalg.norm(c)
            assert abs(report.contraction_estimate / want - 1.0) <= 5e-5, (r, seed)


def test_apriori_sample_takes_each_norm_once(transform_calls):
    # one 128-point sample at the default r, beta and (p, q): 1 transform makes g, each
    # of the 3 solves takes 4 (with its residual), g's norms 1 + 3 stacks, and the 3 u's,
    # side by side, 1 + 6 (5 stack sets and the lower derivative of B^3); one norm per
    # point took 184
    grid = GridSpec(1, 128, math.pi)
    Q = neg_laplacian(grid)
    transform_calls.clear()
    g = random_band_limited_field(grid, 1, np.random.Generator(np.random.PCG64(9)))
    solutions = [(r, solve_constant(ResolventProblem(Q, math.pi, r, g)).u)
                 for r in (4.0, 8.0, 16.0)]
    ratios = apriori_ratios(g, Q, solutions, [-2.0, 0.0, 1.0],
                            [(2.0, 2.0), (1.0, math.inf), (math.inf, math.inf)])
    assert len(ratios) == 27
    assert len(transform_calls) == 24, len(transform_calls)


def test_apriori_sample_takes_one_functional_reduction_per_point(monkeypatch):
    # g at its 9 points in one run, the 3 u's side by side at 18: one second-difference
    # functional reduction per Besov point per run, over all its columns (one per column took 63)
    shapes = []

    def counted(values, weight, ps, _power_means=besov.power_means):
        shapes.append(values.shape)
        return _power_means(values, weight, ps)

    monkeypatch.setattr(besov, "power_means", counted)
    grid = GridSpec(1, 128, math.pi)
    Q = neg_laplacian(grid)
    g = random_band_limited_field(grid, 1, np.random.Generator(np.random.PCG64(9)))
    solutions = [(r, solve_constant(ResolventProblem(Q, math.pi, r, g)).u)
                 for r in (4.0, 8.0, 16.0)]
    apriori_ratios(g, Q, solutions, [-2.0, 0.0, 1.0],
                   [(2.0, 2.0), (1.0, math.inf), (math.inf, math.inf)])
    assert [rows for rows, _ in shapes] == [1] * 9 + [3] * 18


def test_apriori_ratio_zero_rhs(grid1d):
    Q = neg_laplacian(grid1d)
    zero = Field(grid1d, np.zeros(grid1d.shape + (1,)))
    with pytest.raises(ZeroRHS):
        apriori_ratios(zero, Q, [(8.0, zero)], [0.0], [(2.0, 2.0)])


def test_report_as_dict(grid1d, rng):
    problem = neg_laplacian_problem(grid1d, 8.0, rng)
    d = solve_constant(problem).as_dict()
    assert set(d) == {"residual_linf", "iterations", "contraction_estimate"}


def test_spectral_parameter_refuses_an_overflowing_r(grid1d, rng):
    # the one formula r^n e^{i theta0} of every solve, which parse_config applies to a config's r
    assert _spectral_parameter(8.0, 2, math.pi) == 8.0**2 * np.exp(1j * math.pi)
    assert _spectral_parameter(1e150, 2, 0.0) == 1e150**2  # a float, if not quite 1e300
    problem = ResolventProblem(neg_laplacian(grid1d), math.pi, 1e200,
                               random_band_limited_field(grid1d, 1, rng))
    for call in (lambda: _spectral_parameter(1e200, 2, 0.0), lambda: solve_constant(problem)):
        with pytest.raises(OverflowError, match=r"r=1e\+200: r\^2 overflows a float"):
            call()
    # an order past the float range is named as such, in a bounded repr, whatever r is:
    # 0.5^n underflows and 1^n is 1, so no r^n overflows there
    for r in (8.0, 1.0, 0.5):
        with pytest.raises(OverflowError, match=r"^order 1000+\.\.\.0+ is past the float range$"):
            _spectral_parameter(r, 10**400, math.pi)

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ellreg import besov, grid as grid_module
from ellreg.besov import (
    BesovParams,
    _bessel,
    _difference_multipliers,
    _difference_table,
    _joined,
    _monomials,
    _parseval_norms,
    batch_norms,
    bessel_lift,
    besov_norm,
    besov_norms,
    besov_parts,
    displacement_shells,
    sobolev_norm,
)
from ellreg.cli import main
from ellreg.errors import ChannelMismatch, GridMismatch
from ellreg.grid import (
    _STACK_POINTS,
    _half_pieces,
    Field,
    GridSpec,
    Hermitian,
    SpectralField,
    dft,
    field_from_function,
    lp_norm,
    lp_norms,
    monomial,
    random_band_limited_field,
    spectral_derivative,
    translate,
)
from ellreg.pdo import mi_order, multi_indices, unit_directions
from ellreg.profiles import Plateau

from conftest import apply_multipliers

INF = math.inf


def mode(grid, k):
    return field_from_function(grid, lambda x: np.exp(1j * k * x[..., 0]))


def kink_field(grid):
    x = grid.coords()[..., 0]
    return Field(grid, (np.abs(x) * Plateau(0.5, 3.0)(x))[..., None])


def test_params_validation():
    with pytest.raises(ValueError):
        BesovParams(1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        BesovParams(1.0, 2.0, 0.0)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("spectral", [False, True], ids=["field", "spectrum"])
def test_many_points_equal_one_point_calls_bit_for_bit(dim, n, real, spectral):
    # one stack set per alpha, reduced under every p, gives each point's own norm exactly
    grid = GridSpec(dim, n, math.pi)
    f = random_band_limited_field(grid, 2, np.random.Generator(np.random.PCG64(dim + 2 * real)))
    if real:
        f = Field(grid, f.samples.real)
    F = dft(f)
    assert F.real == real
    pqs = [(1.0, 1.0), (2.0, 2.0), (1.0, INF), (INF, INF)]
    alphas = [2.5, -1.0, 0.5, 2.0, 0.0, 1.0]  # mixed order, repeats across the p, q
    points = [BesovParams(a, p, q) for p, q in pqs for a in alphas[::-1 if p == 2.0 else 1]]
    got = besov_norms(F if spectral else f, points)
    want = [besov_norm(F if spectral else f, P) for P in points]
    assert got == want
    # a spectrum without its samples carries the order-zero norm in the derivative stack
    bare = SpectralField(grid, F.coefficients)
    assert besov_norms(bare, points) == [besov_norm(bare, P) for P in points]
    with pytest.raises(ValueError, match="p must lie"):  # each point validates itself
        besov_norms(f, points[:3] + [BesovParams(1.0, 0.5, 2.0)])


def test_bessel_lift_eigenfunction(grid1d):
    f = mode(grid1d, 3)
    lifted = bessel_lift(-2.0, f)
    assert np.max(np.abs(lifted.samples - 10.0 * f.samples)) < 1e-10


def test_bessel_lift_identity_and_group_law(grid1d, rng):
    f = random_band_limited_field(grid1d, 1, rng)
    same = bessel_lift(0.0, f)
    assert np.max(np.abs(same.samples - f.samples)) < 1e-12
    twice = bessel_lift(1.0, bessel_lift(-3.0, f))
    once = bessel_lift(-2.0, f)
    assert np.max(np.abs(twice.samples - once.samples)) < 1e-11 * (
        1.0 + np.max(np.abs(once.samples))
    )


def test_sobolev_norm_oracle():
    # f = sin x on [-pi, pi): each derivative has L^2 norm sqrt(pi)
    grid = GridSpec(1, 256, math.pi)
    f = field_from_function(grid, lambda x: np.sin(x[..., 0]))
    expected = 3.0 * math.sqrt(math.pi)
    assert abs(sobolev_norm(f, 2, 2.0) - expected) < 1e-9


def test_seminorm_triangle_wave_oracle():
    # Oracle first: brute-force sup of |f(x+rho)-2f(x)+f(x-rho)|/rho over the
    # same displacement set, from exact function values at 4x resolution.
    grid = GridSpec(1, 256, math.pi)
    prof = Plateau(0.5, 3.0)
    fe = lambda y: np.abs(y) * prof(y)
    xs = np.linspace(-math.pi, math.pi, 4 * 256, endpoint=False)
    oracle = max(
        np.max(np.abs(fe(xs + rho) - 2 * fe(xs) + fe(xs - rho))) / rho
        for rho in displacement_shells(grid)
    )
    assert abs(oracle - 2.0) < 1e-9  # the kink's peak second difference is 2h
    f = kink_field(grid)
    s = besov_parts(f, BesovParams(1.0, INF, INF))[1]
    assert abs(s - oracle) < 1e-6


@pytest.mark.parametrize("dim,n,k", [(2, 16, (3, -2)), (3, 8, (1, 2, -3))])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("q", [1.0, 2.0, INF])
def test_seminorm_of_a_plane_wave_over_all_eight_directions(dim, n, k, alpha, q):
    # Oracle from the definition: each second difference of exp(i k.x) at h is the wave times
    # 2 cos(k.h) - 2, of modulus 4 sin^2(k.h / 2), so the functional is a closed-form sum over
    # every shell and all 8 unit_directions, antipodes included, nothing deduplicated
    grid = GridSpec(dim, n, math.pi)
    f = field_from_function(grid, lambda x: np.exp(1j * (x @ np.array(k, dtype=float))))
    area = 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    for p in (1.0, 2.0, INF):
        wave = (2.0 * grid.half_period) ** (dim / p)  # ||exp(i k.x)||_p
        terms = [4.0 * math.sin(rho * np.dot(k, w) / 2.0) ** 2 * wave / rho**alpha
                 for rho in displacement_shells(grid) for w in unit_directions(dim, 8)]
        want = (max(terms) if q == INF
                else (area * math.log(2.0) / 8.0 * sum(t**q for t in terms)) ** (1.0 / q))
        got = besov_parts(f, BesovParams(alpha, p, q))[1]
        assert abs(got - want) <= 1e-12 * want, (p, got, want)


def jump_field(n, dim=1):
    # f = 1_{|x_1|<1} on [-pi, pi)^m.  Each shell rho = L / 2^j is a lattice shift, which moves
    # each sampled jump by exactly rho, so ||Delta^2_rho f||_1 = 4 rho at every shell, pi/2
    # included: every shell quotient rho^-1 ||Delta^2_rho f||_1 is 4.  A jump lies in
    # B^{1/p}_{p,inf} and in no B^{1/p}_{p,q} with q < inf (Triebel 1983)
    return field_from_function(GridSpec(dim, n, math.pi),
                               lambda x: (np.abs(x[..., 0]) < 1.0).astype(float))


def shell_quotients(f, p):
    """rho^(-1/p) ||Delta^2_rho f||_p (shells, kept directions), from the samples of the inverse
    transforms of the second-difference stacks."""
    radii, _, rows = _difference_table(f.grid)
    norms = np.concatenate([lp_norms(stack, [p], grid=f.grid)[0]
                            for stack in apply_multipliers(f, _difference_multipliers, rows[1:])])
    return norms.reshape(len(radii), -1) / radii[:, None] ** (1.0 / p)


@pytest.mark.parametrize("n", [256, 512, 1024, 2048, 4096])
def test_a_jump_keeps_its_endpoint_part_at_every_resolution(n):
    got = besov_parts(jump_field(n), BesovParams(1.0, 1.0, INF))[1]
    assert got == pytest.approx(4.0, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [256, 512, 1024, 2048, 4096])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_a_jump_grows_like_log_n_below_the_endpoint(n, q):
    # in 1-D the one kept direction carries the whole weight 2 ln 2, over log2 N shells
    want = 4.0 * (2.0 * math.log(2.0) * math.log2(n)) ** (1.0 / q)
    got = besov_parts(jump_field(n), BesovParams(1.0, 1.0, q))[1]
    assert got == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [256, 512, 1024, 2048, 4096])
def test_a_jump_is_exact_shell_by_shell(n):
    # p = 1: every shell quotient is 4, the h/2 shell (not a lattice shift) included.
    # p = 2: Delta^2_rho f is +-1 on 2 rho per jump, so a shell quotient rho^-1/2 ||.||_2 is 2
    # while rho is a lattice shift and the two jumps' stencils stay apart (rho <= 1); the
    # lattice sums and the samples agree on it
    f = jump_field(n)
    radii, _, rows = _difference_table(f.grid)
    assert shell_quotients(f, 1.0)[:, 0] == pytest.approx(np.full(len(radii), 4.0), rel=1e-12)
    exact = (radii >= f.grid.spacing) & (radii <= 1.0)
    (lattice,) = _parseval_norms(_joined([f]), _difference_multipliers, rows, [None])
    for quotients in (shell_quotients(f, 2.0)[:, 0], lattice[1:, 0] / radii**0.5):
        assert quotients[exact] == pytest.approx(np.full(exact.sum(), 2.0), rel=1e-12)
    assert exact.sum() == len(radii) - 2  # all but pi/2 and h/2


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_a_stripe_is_exact_along_the_axes(n):
    # f = 1_{|x_1|<1} on [-pi, pi)^2: two jump lines of length 2 pi, so along x_1 every shell
    # quotient is 2 * 2 pi * 2 = 8 pi, along x_2 it is 0, and the B^1_{1,inf} part is 8 pi.
    # The diagonals are no lattice shifts, and are not exact (docs/DECISIONS.md)
    f = jump_field(n, dim=2)
    radii, _, rows = _difference_table(f.grid)
    quotients = shell_quotients(f, 1.0)
    directions = rows[1:1 + quotients.shape[1], :-1] / radii[0]  # the kept ones, shell by shell
    along, across = (np.flatnonzero(np.isclose(np.abs(directions[:, d]), 1.0))[0] for d in (0, 1))
    assert np.max(np.abs(quotients[:, along] - 8.0 * math.pi)) <= 1e-13 * 8.0 * math.pi
    assert np.max(quotients[:, across]) <= 1e-13 * 8.0 * math.pi
    got = besov_parts(f, BesovParams(1.0, 1.0, INF))[1]
    assert got == pytest.approx(8.0 * math.pi, rel=1e-13)


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 32)])
@pytest.mark.parametrize("s", [1.0 / 64.0, 64.0])
@pytest.mark.parametrize("alpha,p,q", [(0.5, 2.0, 2.0), (1.5, 1.0, 1.0), (0.9, INF, INF)])
def test_second_difference_part_is_homogeneous_under_dilation(dim, n, s, alpha, p, q):
    # f(./s) on [-s pi, s pi)^m has the samples of f on [-pi, pi)^m, and its seminorm is
    # s^(m/p - alpha) times f's: every shell L / 2^j scales with L, none is cut at a length.
    # White noise carries every frequency, so that no shell's term is negligible
    grid = GridSpec(dim, n, math.pi)
    noise = np.random.Generator(np.random.PCG64(dim)).standard_normal(grid.shape + (1,))
    f = Field(grid, noise)
    P = BesovParams(alpha, p, q)
    want = s ** (dim / p - alpha) * besov_parts(f, P)[1]
    got = besov_parts(Field(GridSpec(dim, n, s * math.pi), f.samples), P)[1]
    assert abs(got - want) <= 1e-12 * want


def test_besov_norm_finite_across_scale(grid1d):
    f = mode(grid1d, 3)
    for alpha in (-1.0, 0.0, 0.5, 1.0, 2.0):
        for q in (1.0, 2.0, INF):
            n = besov_norm(f, BesovParams(alpha, 2.0, q))
            assert math.isfinite(n) and n > 0.0


def exp_mode_besov(k: int, alpha: float, p: float, q: float, grid) -> float:
    """The B^alpha_{p,q} norm of exp(ikx) on a 1-D grid, in closed form.

    |exp(ikx)| = 1, and its second difference at displacement rho has modulus
    |2 - 2 cos k rho| everywhere, so every L^p norm is that factor times (2L)^(1/p).
    Orders <= 0 carry the Bessel factor (1 + k^2)^(-(1 - alpha)/2) and are measured at
    order one; orders above one add the Sobolev part.  The q-sum over the shells (the
    unit sphere of R^1 has area 2) is divided by its largest term, so no q overflows it.
    """
    unit = (2.0 * grid.half_period) ** (1.0 / p)

    def seminorm(amp, a):
        vals = [amp * abs(2.0 - 2.0 * math.cos(k * rho)) * unit / rho**a
                for rho in displacement_shells(grid)]
        top = max(vals)
        return top * (2.0 * math.log(2.0) * sum((v / top) ** q for v in vals)) ** (1.0 / q)

    if alpha <= 0.0:
        amp = (1.0 + k * k) ** (-(1.0 - alpha) / 2.0)
        return amp * unit + seminorm(amp, 1.0)
    if alpha <= 1.0:
        return unit + seminorm(1.0, alpha)
    order = math.ceil(alpha) - 1
    return sum(k**j * unit for j in range(order + 1)) + seminorm(float(k) ** order, alpha - order)


@pytest.mark.parametrize("p", [1100.0, 1e6, 1e300])
def test_besov_norms_match_the_closed_form_at_large_exponents(p):
    grid = GridSpec(1, 256, math.pi)
    alphas = [-1.0, 0.0, 0.5, 1.0, 1.5, 2.0]
    norms = besov_norms(mode(grid, 3), [BesovParams(a, p, p) for a in alphas])
    for alpha, norm in zip(alphas, norms):
        want = exp_mode_besov(3, alpha, p, p, grid)
        assert abs(norm - want) <= 1e-12 * want, alpha


@pytest.mark.parametrize("p", [400.0, 1100.0])
def test_besov_norm_run_is_finite_and_exact_at_large_exponents(tmp_path, p):
    config = {"kind": "besov-norm", "grid": {"dim": 1, "points_per_axis": 128},
              "parameters": {"p": p, "q": p}, "output_dir": "large-p"}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["run", str(tmp_path / "cfg.json"), "--output-root", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "large-p" / "results.json").read_text())["results"]
    assert results["all_finite"] is True
    grid = GridSpec(1, 128, math.pi)
    for alpha, norm in results["norms"].items():
        want = exp_mode_besov(3, float(alpha), p, p, grid)
        assert abs(norm - want) <= 1e-12 * want, alpha


def test_besov_zero_field(grid1d):
    f = Field(grid1d, np.zeros(grid1d.shape + (1,)))
    assert besov_norm(f, BesovParams(0.5, 2.0, 2.0)) == 0.0


def test_refinement_stability_smooth_fixture():
    vals = {}
    for n in (128, 256):
        grid = GridSpec(1, n, math.pi)
        f = field_from_function(grid, lambda x: np.sin(2.0 * x[..., 0]))
        for alpha in (0.5, 1.0, 2.5):
            vals.setdefault(alpha, []).append(
                besov_norm(f, BesovParams(alpha, 2.0, INF))
            )
    for alpha, (a, b) in vals.items():
        assert abs(b / a - 1.0) < 0.10


def test_zygmund_separation():
    # windowed |x| sits exactly at order one: stable there, divergent above
    b1, b125 = [], []
    for n in (128, 256, 512):
        grid = GridSpec(1, n, math.pi)
        f = kink_field(grid)
        b1.append(besov_norm(f, BesovParams(1.0, INF, INF)))
        b125.append(besov_norm(f, BesovParams(1.25, INF, INF)))
    assert abs(b1[-1] / b1[0] - 1.0) < 0.02
    # divergence rate per doubling is 2^(1/4): the sup gains one dyadic shell
    for a, b in zip(b125, b125[1:]):
        assert b / a > 1.10


def trig_corpus(grid, count, kmax=5, seed=5):
    """Random trig polynomials with a resolution-independent frequency band."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = grid.coords()[..., 0]
    out = []
    for _ in range(count):
        c = rng.standard_normal(2 * kmax + 1) + 1j * rng.standard_normal(2 * kmax + 1)
        vals = sum(c[k + kmax] * np.exp(1j * k * x) for k in range(-kmax, kmax + 1))
        out.append(Field(grid, vals[..., None]))
    return out


def test_embedding_b0_vs_lp():
    # one-sided comparability on a corpus, constant logged via refinement
    ratios = {}
    for n in (64, 128):
        grid = GridSpec(1, n, math.pi)
        rs = [
            besov_norm(f, BesovParams(0.0, 2.0, INF)) / lp_norm(f, 2.0)
            for f in trig_corpus(grid, 20)
        ]
        ratios[n] = (min(rs), max(rs))
    for n, (lo, hi) in ratios.items():
        assert 0.0 < lo and hi < 100.0
    # the empirical constants are refinement-stable
    assert abs(ratios[128][1] / ratios[64][1] - 1.0) < 0.5


def test_lift_identity_two_sided():
    grid = GridSpec(1, 128, math.pi)
    for gamma in (-1.0, 1.0):
        for f in trig_corpus(grid, 5, kmax=3, seed=9):
            a = besov_norm(f, BesovParams(0.5, 2.0, 2.0))
            b = besov_norm(bessel_lift(gamma, f), BesovParams(0.5 + gamma, 2.0, 2.0))
            assert 0.25 <= b / a <= 4.0


def test_besov_monotone_in_alpha(grid1d):
    f = mode(grid1d, 3)
    alphas = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0)
    norms = [besov_norm(f, BesovParams(a, 2.0, INF)) for a in alphas]
    assert all(b > 0.8 * a for a, b in zip(norms, norms[1:]))


def translate_second_differences(f, alpha, ps):
    """Oracle: weighted L^p norms of u(.+h) - 2u + u(.-h) from two translates, per p."""
    radii = displacement_shells(f.grid)
    dirs = unit_directions(f.grid.dim, 8)
    arr = np.zeros((len(ps), len(radii), len(dirs)))
    for i, rho in enumerate(radii):
        for j, omega in enumerate(dirs):
            diff = translate(f, rho * omega) - 2.0 * f + translate(f, -rho * omega)
            arr[:, i, j] = [lp_norm(diff, p) / rho**alpha for p in ps]
    return arr


def shell_integral(arr, q, dim):
    if math.isinf(q):
        return float(np.max(arr))
    area = 2.0 * np.pi ** (dim / 2.0) / math.gamma(dim / 2.0)
    return float((np.sum(np.mean(arr**q, axis=1)) * area * math.log(2.0)) ** (1.0 / q))


@pytest.mark.parametrize("dim,n", [(1, 8192), (2, 128), (3, 32)])
@pytest.mark.parametrize("channels", [1, 3])
def test_batched_second_difference_matches_translates(dim, n, channels):
    grid = GridSpec(dim, n, math.pi)
    f = random_band_limited_field(grid, channels, np.random.Generator(np.random.PCG64(dim)))
    # the multiplier stack outgrows one inverse transform, so it is split
    assert len(displacement_shells(grid)) * f.samples.size > _STACK_POINTS
    ps = [1.0, 2.0, INF]
    oracle = translate_second_differences(f, 0.5, ps)
    for arr, p in zip(oracle, ps):
        for q in (2.0, INF):
            got = besov_parts(f, BesovParams(0.5, p, q))[1]
            want = shell_integral(arr, q, dim)
            assert abs(got - want) <= 1e-12 * want, (p, q, got, want)


@pytest.mark.parametrize("dim,n", [(1, 256), (2, 32)])
@pytest.mark.parametrize("channels", [1, 3])
def test_fused_besov_norm_matches_its_parts(dim, n, channels):
    # besov_norm takes one forward transform; its parts, taken one field at a time, are the oracle
    grid = GridSpec(dim, n, math.pi)
    f = random_band_limited_field(grid, channels, np.random.Generator(np.random.PCG64(7 + dim)))
    lifted = {alpha: bessel_lift(1.0 - alpha, f) for alpha in (-1.0, 0.0)}
    tops = {k: [spectral_derivative(f, b) for b in multi_indices(dim, k) if mi_order(b) == k]
            for k in (1, 2)}
    for p in (1.0, 2.0, INF):
        for q in (2.0, INF):
            want = {}
            for alpha, g in lifted.items():
                want[alpha] = lp_norm(g, p) + besov_parts(g, BesovParams(1.0, p, q))[1]
            for alpha, k in ((2.0, 1), (2.5, 2)):
                frac = alpha - k
                want[alpha] = sobolev_norm(f, k, p) + sum(
                    besov_parts(d, BesovParams(frac, p, q))[1] for d in tops[k]
                )
            for alpha, w in want.items():
                got = besov_norm(f, BesovParams(alpha, p, q))
                assert abs(got - w) <= 1e-12 * w, (alpha, p, q, got, w)


@pytest.mark.parametrize("dim,n,half_period,tol", [(1, 256, math.pi, 0.0), (2, 256, 3.5, 1e-13),
                                                   (3, 16, math.pi, 1e-13)])
def test_per_axis_difference_multipliers_match_the_lattice_formula(dim, n, half_period, tol):
    # every row of the table, the 2-D diagonal directions included; 1-D is bit-identical
    grid = GridSpec(dim, n, half_period)
    _, _, rows = _difference_table(grid)
    got = _difference_multipliers(rows, grid.freqs())
    want = rows[:, -1] - 4.0 * np.sin(0.5 * (grid.freqs() @ rows[:, :-1].T)) ** 2
    want = np.moveaxis(want, -1, 0)  # row-major, as builds are
    assert got.shape == want.shape == (len(rows),) + grid.shape
    assert np.max(np.abs(got - want)) <= tol
    # the real route's half lattice and Nyquist planes are slices of the same product lattice
    for piece in _half_pieces(grid):
        assert np.array_equal(_difference_multipliers(rows, grid.freqs()[piece]),
                              got[(slice(None),) + piece])


@pytest.mark.parametrize("channels,n,real", [(1, 256, False), (3, 128, False), (1, 256, True),
                                            (3, 128, True)],
                         ids=["1-256", "3-128", "real-1-256", "real-3-128"])
@pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0])
def test_besov_norm_peak_memory(channels, n, real, alpha):
    # a lattice-sized multiplier or coefficient stack kept alive across a
    # stacked inverse transform adds about half a field to this peak; a real
    # field takes the half-lattice route, whose samples are built in place
    grid = GridSpec(2, n, math.pi)
    f = random_band_limited_field(grid, channels, np.random.Generator(np.random.PCG64(0)))
    if real:
        f = Field(grid, f.samples.real)
        assert dft(f).real
    params = BesovParams(alpha, 1.0, INF)
    besov_norm(f, params)  # fills the per-grid lattice and difference-table caches
    tracemalloc.start()
    try:
        besov_norm(f, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.25 * f.samples.nbytes, peak / f.samples.nbytes


def ifftn_of_the_lattice_product(f, m):
    """Oracle: numpy's ifftn of the whole-lattice product m * dft(f), m of shape (n, *shape),
    as a stack (n, l, *shape)."""
    grid = f.grid
    axes, phase = tuple(range(grid.dim)), grid._phase()[..., None]
    F = np.fft.fftn(f.samples, axes=axes) * (phase / grid.num_points)
    m = np.moveaxis(m, 0, -1)
    want = np.fft.ifftn(F[..., None, :] * (m * phase)[..., None], axes=axes) * grid.num_points
    return np.moveaxis(want, (-2, -1), (0, 1))


# the families besov_norm stacks at each alpha: the Bessel lift, none, the top derivatives
def besov_factors(dim, alpha):
    if alpha <= 0.0:
        return [Hermitian(_bessel, 1.0 - alpha)]
    if alpha <= 1.0:
        return [None]
    return [Hermitian(monomial, alpha=beta) for beta in multi_indices(dim, 1) if any(beta)]


@pytest.mark.parametrize("dim,n", [(1, 64), (1, 96), (2, 32), (2, 48), (3, 16)])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("alpha", [-1.0, 0.5, 2.0])
def test_real_route_matches_ifftn_of_the_whole_lattice_product(dim, n, channels, alpha):
    # white noise: every bin, the Nyquist hyperplanes included, carries weight
    grid = GridSpec(dim, n, 2.5)
    f = Field(grid, np.random.Generator(np.random.PCG64(dim * n)).standard_normal(
        grid.shape + (channels,)))
    F = dft(f)
    assert F.real
    _, _, rows = _difference_table(grid)
    xi = grid.freqs()
    for factor in besov_factors(dim, alpha):
        stacks = apply_multipliers(F, _difference_multipliers, rows, factor)
        got = np.concatenate(list(stacks))
        m = _difference_multipliers(rows, xi)
        want = ifftn_of_the_lattice_product(f, m if factor is None else m * factor(xi))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        for p in (1.0, 2.0, INF):
            norms, oracle = lp_norm(got, p, grid=grid), lp_norm(want, p, grid=grid)
            assert np.max(np.abs(norms - oracle) / oracle) <= 1e-13, p
    # besov_norm agrees with the complex route of the same field turned by e^{0.3i}
    turned = Field(grid, f.samples * np.exp(0.3j))
    assert not dft(turned).real
    for p in (1.0, 2.0, INF):
        norm, oracle = (besov_norm(g, BesovParams(alpha, p, INF)) for g in (f, turned))
        assert abs(norm - oracle) <= 1e-13 * oracle, p


BATCH_POINTS = [BesovParams(a, p, q) for a in (-1.0, 0.5, 1.0, 2.5)
                for p, q in ((1.0, INF), (2.0, 2.0), (INF, INF))]


def assert_batch_matches_one_field_calls(fields):
    # equal: every norm is one contiguous sum per field, over the lattice at p = 2 and over
    # the field's own row of samples otherwise, however many fields share the run
    got = batch_norms(fields, BATCH_POINTS)
    assert len(got) == len(fields)
    for norms, f in zip(got, fields):
        for P, a, b in zip(BATCH_POINTS, norms, besov_norms(f, BATCH_POINTS)):
            assert a == b, (P, a, b)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("size", [1, 3])
def test_batch_norms_match_one_field_calls(dim, n, channels, real, size):
    grid = GridSpec(dim, n, math.pi)
    rng = np.random.Generator(np.random.PCG64(size + 10 * channels))
    fields = [random_band_limited_field(grid, channels, rng) for _ in range(size)]
    if real:
        fields = [Field(grid, f.samples.real) for f in fields]
    assert_batch_matches_one_field_calls(fields)


def test_batch_norms_across_the_group_cap():
    # 17 fields of 64^2 points: a run holds 16 of them (_STACK_POINTS), the 17th runs alone
    grid = GridSpec(2, 64, math.pi)
    rng = np.random.Generator(np.random.PCG64(17))
    fields = [random_band_limited_field(grid, 1, rng) for _ in range(17)]
    assert 16 * grid.num_points == _STACK_POINTS
    assert_batch_matches_one_field_calls(fields)


def test_batch_norms_refuse_mixed_grids_and_channel_counts(rng):
    # measured side by side, a 3-channel field would be read as 3 fields of one channel, and a
    # field of another period on the first one's grid
    grid = GridSpec(1, 64, math.pi)
    one, three = (random_band_limited_field(grid, channels, rng) for channels in (1, 3))
    other = random_band_limited_field(GridSpec(1, 64, 2.0), 1, rng)
    point = [BesovParams(0.5, 2.0, 2.0)]
    with pytest.raises(ChannelMismatch):
        batch_norms([one, three], point)
    with pytest.raises(GridMismatch):
        batch_norms([one, other], point)


def test_batch_norms_of_a_spectrum_and_no_fields(grid1d, rng):
    f = random_band_limited_field(grid1d, 2, rng)
    assert batch_norms([dft(f)], BATCH_POINTS) == batch_norms([f], BATCH_POINTS)
    assert batch_norms([], BATCH_POINTS) == []
    assert batch_norms([f, f], []) == [[], []]


def test_batch_norms_refuse_a_spectrum_among_other_fields(grid1d, rng):
    # a spectrum carries no samples to lay side by side with another field's
    f = random_band_limited_field(grid1d, 1, rng)
    for batch in ([dft(f), f], [f, dft(f)], [dft(f), dft(f)]):
        with pytest.raises(ValueError, match="SpectralField"):
            batch_norms(batch, [BesovParams(0.5, 2.0, 2.0)])


def inverse_route_l2(F, build, rows, factor, count):
    """Oracle: the L^2 norms (n, count) of the sample stacks, stack by stack."""
    return np.concatenate([
        lp_norms(stack.reshape((len(stack), count, -1) + F.grid.shape), [2.0], grid=F.grid)[0]
        for stack in apply_multipliers(F, build, rows, factor)])


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 16)])
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_parseval_route_matches_the_inverse_route(dim, n, channels, real):
    # two fields side by side, as a batch lays them; every top-stack factor family at once
    grid = GridSpec(dim, n, 2.5)
    rng = np.random.Generator(np.random.PCG64(dim * n + channels))
    fields = [random_band_limited_field(grid, channels, rng) for _ in range(2)]
    if real:
        fields = [Field(grid, f.samples.real) for f in fields]
    run = _joined(list(fields))
    assert run.F.real == real
    _, _, rows = _difference_table(grid)
    factors = [None, Hermitian(_bessel, 2.0), Hermitian(monomial, alpha=(1,) * dim)]
    for factor, got in zip(factors, _parseval_norms(run, _difference_multipliers, rows, factors)):
        want = inverse_route_l2(run.F, _difference_multipliers, rows, factor, 2)
        assert got.shape == want.shape == (len(rows), 2)
        assert np.max(np.abs(got - want) / want) <= 1e-13, factor
    alphas = multi_indices(dim, 2)
    (got,) = _parseval_norms(run, _monomials, alphas, [None])
    want = inverse_route_l2(run.F, _monomials, alphas, None, 2)
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_parseval_route_past_the_square_overflow():
    # |xi|^199 reaches 32^199 = 2^995 on 64 points of period 2 pi, where xi = k: its square
    # overflows, the norm does not, and it matches the exact rational sum over the lattice.
    # |xi|^300 overflows itself, and both routes give NaN.
    grid = GridSpec(1, 64, math.pi)
    k = np.rint(grid.freqs()[..., 0]).astype(int)
    f = random_band_limited_field(grid, 1, np.random.Generator(np.random.PCG64(5)))
    for real in (False, True):
        run = _joined([Field(grid, f.samples.real) if real else f])
        rows = [(199,), (300,)]
        with np.errstate(over="ignore", invalid="ignore"):
            (got,) = _parseval_norms(run, _monomials, rows, [None])
            want = inverse_route_l2(run.F, _monomials, rows, None, 1)
        squares = sum(Fraction(abs(int(j)) ** 398) * Fraction(float(abs(c) ** 2))
                      for j, c in zip(k, run.F.coefficients[:, 0]))
        exact = math.sqrt(float(2 * Fraction(math.pi) * squares / 2**1000)) * 2.0**500
        assert abs(got[0, 0] - exact) <= 1e-14 * exact and exact > 1e200
        assert np.isnan(got[1]).all() and np.isnan(want[1]).all()


def test_parseval_route_in_row_chunks():
    # on 256^2 points a chunk holds one row of the two factors: every row is its own chunk
    grid = GridSpec(2, 256, math.pi)
    run = _joined([random_band_limited_field(grid, 1, np.random.Generator(np.random.PCG64(7)))])
    _, _, rows = _difference_table(grid)
    factors = [None, Hermitian(monomial, alpha=(0, 1))]
    assert len(factors) * grid.num_points > _STACK_POINTS and len(rows) > 1
    for factor, got in zip(factors, _parseval_norms(run, _difference_multipliers, rows, factors)):
        want = inverse_route_l2(run.F, _difference_multipliers, rows, factor, 1)
        assert np.max(np.abs(got - want) / want) <= 1e-13, factor


@pytest.mark.parametrize("scale", [2.0**-700, 1e-200, 1e200, 2.0**700])
def test_p2_norms_scale_without_overflow(scale):
    # the squares of these coefficients leave the float range; the norms do not
    grid = GridSpec(1, 64, math.pi)
    f = random_band_limited_field(grid, 3, np.random.Generator(np.random.PCG64(11)))
    points = [BesovParams(a, 2.0, 2.0) for a in (-1.0, 0.5, 2.5)]
    for got, want in zip(besov_norms(f * scale, points), besov_norms(f, points)):
        assert abs(got - scale * want) <= 1e-13 * scale * want
    assert sobolev_norm(f * scale, 2, 2.0) == pytest.approx(scale * sobolev_norm(f, 2, 2.0),
                                                            rel=1e-13)


def test_p2_batch_takes_one_forward_transform_per_run_and_no_inverse(transform_calls):
    # 9 complex fields of 8192 points: a run of 8 (_STACK_POINTS) and one alone
    grid = GridSpec(1, 8192, math.pi)
    rng = np.random.Generator(np.random.PCG64(13))
    fields = [random_band_limited_field(grid, 1, rng) for _ in range(9)]
    points = [BesovParams(a, 2.0, q) for a in (-1.0, 0.5, 1.0, 2.5) for q in (1.0, 2.0, INF)]
    transform_calls.clear()
    batch_norms(fields, points)
    assert transform_calls == ["fft", "fft"]
    transform_calls.clear()
    sobolev_norm(fields[0], 2, 2.0)
    assert transform_calls == ["fft"]


def counted_difference_builds(monkeypatch):
    """Grows by one per _difference_multipliers build, on either route and for either norm."""
    calls = []

    def counted(rows, xi, _build=_difference_multipliers):
        calls.append(len(rows))
        return _build(rows, xi)

    monkeypatch.setattr(besov, "_difference_multipliers", Hermitian(counted))
    return calls


@pytest.mark.parametrize("n,builds", [(128, 16), (256, 66)])
@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_one_difference_build_per_chunk_and_piece_for_every_top_derivative(monkeypatch, n,
                                                                           builds, alpha):
    # a real 2-D field takes the half lattice and one Nyquist plane: two pieces per chunk.
    # 256^2: 33 rows, one per chunk; 128^2: 29 rows, four per chunk, so 8 chunks.  Two top
    # derivatives at alpha = 2 and three at alpha = 3 share each chunk's build
    grid = GridSpec(2, n, 3.5)
    f = Field(grid, random_band_limited_field(grid, 1, np.random.Generator(np.random.PCG64(n)))
              .samples.real)
    calls = counted_difference_builds(monkeypatch)
    besov_parts(f, BesovParams(alpha, 1.0, INF))
    assert len(calls) == builds
    assert sum(calls) == 2 * len(_difference_table(grid)[2])


def test_mixed_p_builds_each_row_for_the_samples_and_again_for_the_lattice(monkeypatch):
    # 14 rows on 3 channels of 8192 complex points, 2 per chunk of the samples: p != 2 builds
    # each row once for the inverse transforms, p = 2 once for its lattice sums, and a call
    # with both does both
    grid = GridSpec(1, 8192, math.pi)
    f = random_band_limited_field(grid, 3, np.random.Generator(np.random.PCG64(4)))
    rows = _difference_table(grid)[2]
    chunks = -(-len(rows) // (grid_module._STACK_POINTS // f.samples.size))
    assert len(rows) == 14 and chunks > 1
    calls = counted_difference_builds(monkeypatch)
    for ps, builds in (([1.0, 2.0, INF], 2), ([1.0], 1), ([2.0], 1)):
        calls.clear()
        besov_norms(f, [BesovParams(0.5, p, 2.0) for p in ps])
        assert sum(calls) == builds * len(rows), (ps, calls)
        assert ps != [1.0] or len(calls) == chunks, calls  # one build per chunk of the samples


@pytest.mark.parametrize("f", [
    pytest.param(lambda: random_band_limited_field(GridSpec(2, 128, 3.0), 1,
                                                   np.random.Generator(np.random.PCG64(1))),
                 id="complex-128"),
    pytest.param(lambda: Field(GridSpec(2, 128, 3.0), random_band_limited_field(
        GridSpec(2, 128, 3.0), 1, np.random.Generator(np.random.PCG64(2))).samples.real),
                 id="real-128"),
    pytest.param(lambda: random_band_limited_field(GridSpec(1, 256, math.pi), 3,
                                                   np.random.Generator(np.random.PCG64(3))),
                 id="complex-1d-3-channels"),
])
def test_besov_parts_equal_with_one_row_per_chunk(monkeypatch, f):
    # each norm is one contiguous sum per (row, field), so the chunking cannot move it
    f = f()
    points = [BesovParams(2.0, 1.0, INF), BesovParams(0.5, 1.0, 1.0)]
    default = [besov_parts(f, P) for P in points]
    assert len(_difference_table(f.grid)[2]) * f.samples.size > 1  # several rows per chunk
    monkeypatch.setattr(grid_module, "_STACK_POINTS", 1)
    assert [besov_parts(f, P) for P in points] == default

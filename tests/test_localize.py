import math
import tracemalloc

import numpy as np
import pytest

from ellreg.besov import BesovParams, besov_norm
from ellreg.errors import IncommensurableDelta
from ellreg.grid import _STACK_POINTS, Field, GridSpec, random_band_limited_field
from ellreg.localize import build_partition, global_and_patch_norm, partition_count


def test_partition_sums_to_one_1d(grid1d):
    part = build_partition(grid1d, math.pi / 2.0)
    total = part.psis.sum(axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-12
    assert np.all(part.psis >= 0.0)


def test_partition_sums_to_one_2d(grid2d):
    part = build_partition(grid2d, math.pi / 2.0)
    total = part.psis.sum(axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_translate_count_per_axis(grid1d):
    # spacing delta/2 over the period 2L gives 4L/delta translates per axis
    delta = math.pi / 2.0
    part = build_partition(grid1d, delta)
    expected = round(4.0 * grid1d.half_period / delta)
    assert part.num_patches == expected


def test_overlap_bound(grid1d, grid2d):
    for grid in (grid1d, grid2d):
        part = build_partition(grid, math.pi / 2.0)
        assert part.max_overlap() <= 7**grid.dim


def test_incommensurable_delta(grid1d):
    with pytest.raises(IncommensurableDelta):
        build_partition(grid1d, 1.0)  # 4 pi is not an integer multiple


@pytest.mark.parametrize("delta", [1.0, 5e-324, math.pi / 2**19])
def test_partition_count_refuses_what_build_partition_refuses(grid1d, delta):
    # not a divisor; a spacing whose count overflows to inf; 2^21 translates of 64 points
    for refuse in (partition_count, build_partition):
        with pytest.raises(IncommensurableDelta):
            refuse(grid1d, delta)


def test_partition_count_is_the_translates_per_axis(grid1d, grid2d):
    for grid, delta in ((grid1d, math.pi / 2.0), (grid2d, math.pi), (grid2d, 4.0 * math.pi)):
        assert build_partition(grid, delta).num_patches == partition_count(grid, delta) ** grid.dim


def test_patch_fields_reassemble(grid1d, rng):
    part = build_partition(grid1d, math.pi / 2.0)
    f = random_band_limited_field(grid1d, 1, rng)
    total = sum(pf.samples for pf in part.patch_fields(f))
    assert np.max(np.abs(total - f.samples)) < 1e-10


def test_patch_norm_two_sided_and_refinement_stable(rng):
    beta, p = 1.0, 2.0
    ratios = {}
    for n in (64, 128):
        grid = GridSpec(1, n, math.pi)
        corpus_rng = np.random.Generator(np.random.PCG64(17))
        part = build_partition(grid, math.pi / 2.0)
        rs = []
        for _ in range(5):
            f = random_band_limited_field(grid, 1, corpus_rng, band_fraction=8.0 / n)
            whole, local = global_and_patch_norm(f, part, beta, p)
            rs.append(local / whole)
        ratios[n] = (min(rs), max(rs))
    for lo, hi in ratios.values():
        assert 0.05 < lo <= hi < 20.0
    assert abs(ratios[128][1] / ratios[64][1] - 1.0) < 0.20
    assert abs(ratios[128][0] / ratios[64][0] - 1.0) < 0.20



def test_patch_norm_at_a_huge_exponent_is_the_sup_norm(grid1d, rng):
    part = build_partition(grid1d, math.pi / 2.0)
    f = random_band_limited_field(grid1d, 1, rng)
    sup = global_and_patch_norm(f, part, 1.0, math.inf)[1]
    assert abs(global_and_patch_norm(f, part, 1.0, 1e300)[1] - sup) <= 1e-12 * sup
    # l^1100 over 8 patches of B^1_{1100,1100} norms: within 1% of the sup, not overflowed
    assert abs(global_and_patch_norm(f, part, 1.0, 1100.0)[1] / sup - 1.0) < 0.01


def test_global_and_patch_norm_is_one_batch(transform_calls):
    # one 128-point sample of the patch-equivalence experiment: f and its 8 patches share
    # one forward transform, and at p = 2 they are measured on the lattice, with no inverse
    grid = GridSpec(1, 128, math.pi)
    part = build_partition(grid, grid.half_period / 2.0)
    assert part.num_patches == 8
    f = random_band_limited_field(grid, 1, np.random.Generator(np.random.PCG64(3)))
    transform_calls.clear()
    whole, local = global_and_patch_norm(f, part, 1.0, 2.0)
    assert len(transform_calls) == 1, transform_calls
    assert whole == besov_norm(f, BesovParams(1.0, 2.0, 2.0))
    # each patch measured alone, summed in l^2
    alone = [besov_norm(pf, BesovParams(1.0, 2.0, 2.0)) for pf in part.patch_fields(f)]
    assert abs(local - math.sqrt(sum(n * n for n in alone))) <= 1e-14 * local


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("beta", [-1.0, 1.0, 2.5])
def test_patch_norm_peak_memory(real, beta):
    # 16 patches of a 3-channel field on 64^2 points hold three times _STACK_POINTS, so they go
    # with the field in runs of 5 fields.  A run's samples, their spectrum (times a Bessel
    # factor below order one), a chunk's product and its inverse samples, and the reduction's
    # real temporaries are at most about six arrays of the run's size; all 16 in one run
    # measured 17 to 20
    grid = GridSpec(2, 64, math.pi)
    part = build_partition(grid, grid.half_period)
    assert part.num_patches == 16
    f = random_band_limited_field(grid, 3, np.random.Generator(np.random.PCG64(0)))
    if real:
        f = Field(grid, f.samples.real)
    assert part.num_patches * f.samples.size == 3 * _STACK_POINTS
    global_and_patch_norm(f, part, beta, 2.0)  # fills the per-grid lattice and table caches
    tracemalloc.start()
    try:
        global_and_patch_norm(f, part, beta, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    run_bytes = 16 * _STACK_POINTS  # complex128
    assert peak <= 7 * run_bytes, peak / run_bytes

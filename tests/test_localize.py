import math

import numpy as np
import pytest

from ellreg.besov import BesovParams, besov_norm
from ellreg.errors import IncommensurableDelta
from ellreg.grid import GridSpec, random_band_limited_field
from ellreg.localize import build_partition, patch_norm


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
            rs.append(patch_norm(f, part, beta, p) / besov_norm(f, BesovParams(beta, p, p)))
        ratios[n] = (min(rs), max(rs))
    for lo, hi in ratios.values():
        assert 0.05 < lo <= hi < 20.0
    assert abs(ratios[128][1] / ratios[64][1] - 1.0) < 0.20
    assert abs(ratios[128][0] / ratios[64][0] - 1.0) < 0.20



def test_patch_norm_at_a_huge_exponent_is_the_sup_norm(grid1d, rng):
    part = build_partition(grid1d, math.pi / 2.0)
    f = random_band_limited_field(grid1d, 1, rng)
    sup = patch_norm(f, part, 1.0, math.inf)
    assert abs(patch_norm(f, part, 1.0, 1e300) - sup) <= 1e-12 * sup
    # l^1100 over 8 patches of B^1_{1100,1100} norms: within 1% of the sup, not overflowed
    assert abs(patch_norm(f, part, 1.0, 1100.0) / sup - 1.0) < 0.01

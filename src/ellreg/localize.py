"""Lattice partition of unity and patch-norm machinery.

Translates of a tensor-product plateau chi_0 at spacing delta/2 cover the
torus; psi_j = chi_j / sum chi_i gives a smooth partition of unity whose
supports overlap boundedly (at most 7^m patches meet any point).  Patch
norms aggregate per-patch Besov norms in l^p.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .besov import BesovParams, batch_norms
from .errors import IncommensurableDelta
from .grid import Field, GridSpec, power_means
from .profiles import Plateau, min_image


@dataclass
class PartitionSpec:
    grid: GridSpec
    delta: float
    psis: np.ndarray  # (n_patches, *grid.shape), real, sums to one

    @property
    def num_patches(self) -> int:
        return len(self.psis)

    def patch_fields(self, f: Field):
        for idx in range(self.num_patches):
            yield Field(self.grid, self.psis[idx][..., None] * f.samples)

    def max_overlap(self) -> int:
        return int(np.max(np.sum(self.psis > 1e-12, axis=0)))


def build_partition(grid: GridSpec, delta: float) -> PartitionSpec:
    """Partition of unity from plateau translates at spacing delta/2."""
    period = 2.0 * grid.half_period
    count_f = 2.0 * period / delta  # translates per axis at spacing delta/2
    count = round(count_f)
    if abs(count_f - count) > 1e-9 or count < 1:
        raise IncommensurableDelta(
            f"delta={delta} does not divide the period {period}"
        )
    if count**grid.dim * grid.num_points > 1 << 22:  # the grid's own cap, before any allocation
        raise IncommensurableDelta(
            f"delta={delta} makes {count}^{grid.dim} translates of {grid.num_points} points, "
            "more than 2^22 samples"
        )
    prof = Plateau(delta / 2.0, delta)
    axis = grid.axis_points()
    centers = -grid.half_period + (delta / 2.0) * np.arange(count)
    # 1-D factors chi_0(x - delta j / 2), torus min-image, one row per center
    factors = prof(min_image(grid, axis - centers[:, None]))
    psis = np.empty((count**grid.dim,) + grid.shape)
    for idx, label in enumerate(itertools.product(range(count), repeat=grid.dim)):
        chi = np.ones(grid.shape)
        for axis_i, j in enumerate(label):
            shape = [1] * grid.dim
            shape[axis_i] = -1
            chi = chi * factors[j].reshape(shape)
        psis[idx] = chi
    total = psis.sum(axis=0)
    if np.min(total) < 1.0 - 1e-9:
        raise IncommensurableDelta("plateau translates fail to cover the torus")
    psis /= total
    return PartitionSpec(grid, delta, psis)


def patch_norm(f: Field, part: PartitionSpec, beta: float, p: float) -> float:
    """l^p over patches of the per-patch B^beta_{p,p} norms, the patches measured in one batch."""
    return _over_patches(batch_norms(part.patch_fields(f), [BesovParams(beta, p, p)]), p)


def global_and_patch_norm(f: Field, part: PartitionSpec, beta: float, p: float) -> tuple:
    """The B^beta_{p,p} norm of f and its patch_norm, f measured in the batch of its patches."""
    fields = itertools.chain([f], part.patch_fields(f))
    (whole,), *patches = batch_norms(fields, [BesovParams(beta, p, p)])
    return whole, _over_patches(patches, p)


def _over_patches(norms, p: float) -> float:
    """The l^p sum of per-patch norms, given as one list of one norm per patch."""
    return float(power_means(np.array([n for n, in norms]), 1.0, [p])[0])

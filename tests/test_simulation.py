"""The VAR simulator's paths are pinned, so statistical tests see fixed data."""

import hashlib

import numpy as np
import pytest

from tests.simulation import simulate_var

# sha256 of the little-endian float64 bytes of each path. The simulator
# makes no BLAS call, so these hold under every OpenBLAS kernel; they equal
# the paths of the earlier np.matmul form under the kernel without FMA
# (OPENBLAS_CORETYPE=Sandybridge).
PINNED = {
    1.0: "10d3c82ca03ebe370a9c7221383f38e285f90eeb4c198ab3f905184793427bd4",
    (0.5, 2.0): "5d5dff3feef5fcd7a2d2d292f178befc187940a140bab065967a512284825e8d",
    0.0: "8ceb0f6b7fd943ab78b5dd8187405a21e700f32f9d19fcd7a31c797e389071ae",
}


@pytest.mark.parametrize(
    "noise_sd", list(PINNED), ids=["scalar", "per-variable", "zero"]
)
def test_paths_are_bit_identical_to_the_pinned_ones(noise_sd):
    coef = np.array([[[0.5, 0.1], [0.2, 0.3]], [[-0.1, 0.05], [0.0, 0.2]]])
    rng = np.random.default_rng(7)
    data = simulate_var(coef, [0.2, -0.3], 200, rng, noise_sd=noise_sd)
    assert data.shape == (200, 2)
    digest = hashlib.sha256(data.astype("<f8").tobytes()).hexdigest()
    assert digest == PINNED[noise_sd]

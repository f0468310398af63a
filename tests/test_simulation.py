"""The VAR simulator's paths are pinned, so statistical tests see fixed data."""

import hashlib

import numpy as np
import pytest

from tests.simulation import simulate_var

# sha256 of the little-endian float64 bytes of each path, captured from the
# step-by-step simulator that drew one innovation pair per step.
PINNED = {
    1.0: "7e56e0426c29dfd83b0d6cb348fbd7271a26861bd2c4ee77e301b80220dc27d5",
    (0.5, 2.0): "883e48ef30418cd55e3ceb2d8e1332c6f25f75fee01a2505726f546ac96dab2e",
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

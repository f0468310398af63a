"""The lag scan's shape-only arrays, built once per shape and shared read-only.

A scan with warm caches must give the bits of one with cold caches, the
caches must grow with ``max_p`` only, never with the series length, and
``_qr_r`` must be ``np.linalg.qr(mode="r")`` to the bit.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from minecost import econometrics, select_lag_order
from minecost.econometrics import var_min_observations
from tests.conftest import ROOT

CACHES = (econometrics._scan_masks, econometrics._lag_caps, econometrics._strict_lower)
MAX_P = 8
LENGTHS = (var_min_observations(MAX_P), 28, 41, 126, 127, 500, 2001, 6000)
# Every (n, max_p) pair, in a shuffled order that interleaves both.
SCANS = [tuple(pair) for pair in np.random.default_rng(32).permutation(
    [(n, max_p) for n in LENGTHS for max_p in range(1, MAX_P + 1)]).tolist()]


def _scan(n, max_p):
    """The lag table, chosen VAR and batched fit of a random walk of ``n`` rows."""
    data = np.cumsum(np.random.default_rng(n).normal(size=(n, 2)), axis=0)
    selection = select_lag_order(data, max_p)
    table = np.array([[row.aic, row.bic, row.portmanteau_stat, row.portmanteau_pvalue]
                      for row in selection.rows])
    model = selection._model(selection.chosen_p)
    _, C = econometrics._compress(data, max_p)
    beta, sscp = econometrics._rank_orders(C, max_p)
    return table, model.coef_matrices, model.coef_cov, beta, sscp


# Each scan in a fresh process, from cold caches. The process inherits this
# one's CPUs and BLAS settings, which fix how OpenBLAS splits a large product.
COLD = """\
import sys
import numpy as np
from tests.test_scan_cache import CACHES, SCANS, _scan
results = {}
for n, max_p in SCANS:
    for cache in CACHES:
        cache.cache_clear()
    for i, array in enumerate(_scan(n, max_p)):
        results[f"{n}-{max_p}-{i}"] = array
np.savez(sys.argv[1], **results)
"""


def test_warm_scans_equal_cold_ones_and_the_caches_grow_with_max_p_only(tmp_path):
    assert len({n for n, _ in SCANS[:MAX_P]}) > 1 and len({p for _, p in SCANS[:MAX_P]}) > 1
    for cache in CACHES:
        cache.cache_clear()
    warm, seen = {}, set()
    for n, max_p in SCANS:
        for i, array in enumerate(_scan(n, max_p)):
            warm[f"{n}-{max_p}-{i}"] = array
        seen.add(max_p)
        assert [cache.cache_info().currsize for cache in CACHES] == [len(seen)] * 3, (n, max_p)
    cold = tmp_path / "cold.npz"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    result = subprocess.run([sys.executable, "-c", COLD, str(cold)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    with np.load(cold) as fresh:
        assert sorted(fresh.files) == sorted(warm)
        for key, array in warm.items():
            assert np.array_equal(array, fresh[key]), key


def _cached_arrays():
    """Every array the caches hold after a scan at each order."""
    for max_p in range(1, MAX_P + 1):
        _scan(var_min_observations(max_p), max_p)
    for cache in CACHES:
        assert cache.cache_info().currsize > 0
    for max_p in range(1, MAX_P + 1):
        width = 2 * max_p + 3  # columns of the lag design and of C
        yield from econometrics._scan_masks(3 * max_p + 2, width, max_p)
        yield from econometrics._lag_caps(max_p)
        yield econometrics._strict_lower(width, width)


def test_every_cached_array_is_read_only():
    arrays = list(_cached_arrays())
    assert len(arrays) == MAX_P * 11
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array


def _signed_zeros(shape, seed):
    """An upper-triangular draw with -0.0 below the diagonal and in every third
    column: its QR reflects nothing, so R keeps those zeros' signs above the
    diagonal, and only the zeroing of the rest gives +0.0 below it."""
    a = np.triu(np.random.default_rng(seed).normal(size=shape))
    rows, columns = shape[-2:]
    a[..., np.tri(rows, columns, k=-1, dtype=bool) | (np.arange(columns) % 3 == 2)] = -0.0
    return a


@pytest.mark.parametrize("batch", [(), (5,)], ids=["single", "batched"])
@pytest.mark.parametrize("shape", [(9, 4), (5, 5), (3, 6)], ids=["tall", "square", "short"])
def test_qr_r_is_numpys_r_to_the_bit(batch, shape):
    signed = _signed_zeros(batch + shape, 1)
    for a in (signed, np.random.default_rng(2).normal(size=batch + shape)):
        expected = np.linalg.qr(a, mode="r")
        got = econometrics._qr_r(a)
        assert (got.shape, got.dtype) == (expected.shape, expected.dtype)
        assert got.tobytes() == expected.tobytes()
    R = econometrics._qr_r(signed)
    assert ((R == 0.0) & np.signbit(R)).any() and ((R == 0.0) & ~np.signbit(R)).any()

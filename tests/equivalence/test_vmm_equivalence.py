"""Differential equivalence: tiled/batched analog VMM vs naive MACs.

``TiledVmm.multiply`` must equal :meth:`TiledVmm.naive_multiply` (fresh
per-tile conductance matrices, per-MAC accumulation) bit for bit, and
the batch paths must equal a Python loop over the scalar ``multiply``
with one shared generator -- ``np.array_equal`` throughout.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.rngs import make_rng
from repro.inmemory.vmm import AnalogVmm, TiledVmm

BATCH_SIZES = [1, 2, 7, 33]


def random_weights(seed, shape=(6, 5), dtype="float64"):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=shape).astype(dtype)


class TestTiledVsNaive:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), tile_size=st.sampled_from([1, 2, 4]),
           variability=st.sampled_from([0.0, 0.05]),
           noise=st.sampled_from([0.0, 0.02]))
    def test_tiled_multiply_matches_naive(self, seed, tile_size,
                                          variability, noise):
        weights = random_weights(seed)
        tiled = TiledVmm(weights, tile_size=tile_size,
                         variability=variability, rng=seed)
        vector = np.linspace(-1.0, 1.0, weights.shape[0])
        fast = tiled.multiply(vector, noise_sigma=noise, rng=make_rng(3))
        naive = tiled.naive_multiply(vector, noise_sigma=noise,
                                     rng=make_rng(3))
        assert np.array_equal(fast, naive)

    @settings(max_examples=6, deadline=None)
    @given(dtype=st.sampled_from(["float64", "float32"]),
           vec_dtype=st.sampled_from(["float64", "float32", "int64"]))
    def test_bit_identity_across_input_dtypes(self, dtype, vec_dtype):
        # inputs of any dtype coerce to float64 once; both paths must see
        # the same coerced values
        weights = random_weights(9, dtype=dtype)
        tiled = TiledVmm(weights, tile_size=2, variability=0.03, rng=1)
        rng = np.random.default_rng(4)
        vector = (rng.uniform(-5.0, 5.0, size=weights.shape[0]) * 10) \
            .astype(vec_dtype)
        fast = tiled.multiply(vector, noise_sigma=0.01, rng=make_rng(5))
        naive = tiled.naive_multiply(vector, noise_sigma=0.01,
                                     rng=make_rng(5))
        assert np.array_equal(fast, naive)

    def test_uneven_tile_edges(self):
        # 7x5 with tile_size=3 leaves ragged edge tiles
        weights = random_weights(2, shape=(7, 5))
        tiled = TiledVmm(weights, tile_size=3, variability=0.02, rng=0)
        vector = np.linspace(-2.0, 2.0, 7)
        assert np.array_equal(tiled.multiply(vector),
                              tiled.naive_multiply(vector))


class TestBatchVsLoopedMultiply:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), batch=st.sampled_from(BATCH_SIZES),
           noise=st.sampled_from([0.0, 0.02]), shape=st.just((6, 5)))
    # BLAS-sized: the stacked matrix-vector products must still equal
    # one product per row (a plain (batch, n_in) @ G GEMM would not)
    @example(seed=1, batch=300, noise=0.0, shape=(128, 128))
    @example(seed=1, batch=300, noise=0.02, shape=(128, 128))
    def test_analog_vmm_batch_matches_loop(self, seed, batch, noise,
                                           shape):
        weights = random_weights(seed, shape=shape)
        vmm = AnalogVmm(weights, variability=0.05, rng=seed)
        vectors = np.random.default_rng(seed + 1).uniform(
            -1.0, 1.0, size=(batch, weights.shape[0]))
        if batch > 1:
            vectors[batch // 2] = 0.0  # scales by 1.0 on both paths
        batched = vmm.multiply_batch(vectors, noise_sigma=noise,
                                     rng=make_rng(7))
        loop_rng = make_rng(7)
        looped = np.stack([vmm.multiply(row, noise_sigma=noise,
                                        rng=loop_rng)
                           for row in vectors])
        assert np.array_equal(batched, looped)

    @settings(max_examples=5, deadline=None)
    @given(batch=st.sampled_from(BATCH_SIZES))
    def test_tiled_vmm_batch_matches_loop(self, batch):
        weights = random_weights(6)
        tiled = TiledVmm(weights, tile_size=2, variability=0.04, rng=2)
        vectors = np.random.default_rng(8).uniform(
            -1.0, 1.0, size=(batch, weights.shape[0]))
        batched = tiled.multiply_batch(vectors, noise_sigma=0.01,
                                       rng=make_rng(9))
        loop_rng = make_rng(9)
        looped = np.stack([tiled.multiply(row, noise_sigma=0.01,
                                          rng=loop_rng)
                           for row in vectors])
        assert np.array_equal(batched, looped)

    def test_zero_vector_row_uses_unit_scale(self):
        # the `or 1.0` full-scale fallback must fire identically in both
        # paths when a row is all zeros
        weights = random_weights(5)
        vmm = AnalogVmm(weights, rng=0)
        vectors = np.zeros((3, weights.shape[0]))
        vectors[1] = np.linspace(-1.0, 1.0, weights.shape[0])
        batched = vmm.multiply_batch(vectors)
        looped = np.stack([vmm.multiply(row) for row in vectors])
        assert np.array_equal(batched, looped)

"""Analog in-memory vector-matrix multiplication.

The introduction's argument for in-memory computing is the von Neumann
bottleneck: "the limitation on processor speed due to data transfer".
A resistive crossbar attacks it directly -- the weight matrix lives as
conductances and the multiply-accumulate happens as bitline current
summation, so the weights *never move*.

:class:`AnalogVmm` programs a real-valued matrix onto differential
conductance pairs (positive and negative columns), performs the multiply
via :meth:`Crossbar.analog_read`, and reports accuracy against the exact
product under programming variability and read noise.
:func:`data_movement_comparison` makes the bottleneck argument
quantitative: bytes moved per multiply for a load-store architecture vs
the crossbar.
"""

import time

import numpy as np

from ..core import profiling, telemetry
from ..core.rngs import make_rng
from .crossbar import Crossbar
from .memristor import Memristor, MemristorError


class AnalogVmm:
    """A weight matrix stored as differential conductance pairs.

    Parameters
    ----------
    weights : array-like, shape (n_in, n_out)
        Real matrix to program.
    g_min, g_max : float
        Conductance window of the devices (siemens).
    variability : float
        Fractional programming error per device.
    rng : seed/Generator
        Randomness for programming errors.
    scale : float, optional
        Weight normalization scale.  Defaults to ``max|weights|``;
        :class:`TiledVmm` overrides it so every tile shares the global
        matrix scale (a tile's local maximum would silently change the
        conductance encoding of its weights).
    """

    def __init__(self, weights, g_min=1e-6, g_max=1e-4, variability=0.0,
                 rng=None, scale=None):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2:
            raise MemristorError("weights must be a 2-D matrix")
        if g_max <= g_min or g_min <= 0:
            raise MemristorError("need 0 < g_min < g_max")
        self.weights = weights
        self.g_min = float(g_min)
        self.g_max = float(g_max)
        rng = make_rng(rng)
        n_in, n_out = weights.shape
        if scale is None:
            scale = float(np.max(np.abs(weights))) or 1.0
        elif scale <= 0.0:
            raise MemristorError("scale must be positive")
        self.scale = float(scale)
        # differential encoding: column 2j carries positive part,
        # column 2j+1 the negative part
        self.crossbar = Crossbar(
            n_in, 2 * n_out,
            device_factory=lambda: Memristor(r_on=1.0 / g_max,
                                             r_off=1.0 / g_min))
        span = self.g_max - self.g_min
        with telemetry.span("inmemory.vmm.program", rows=n_in,
                            cols=2 * n_out):
            self._program(weights, span, variability, rng)
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter("inmemory.vmm.arrays_programmed").inc()
            registry.counter("inmemory.vmm.cells_programmed").inc(
                2 * n_in * n_out)

    def _program(self, weights, span, variability, rng):
        n_in, n_out = weights.shape
        for i in range(n_in):
            for j in range(n_out):
                weight = weights[i, j] / self.scale  # in [-1, 1]
                positive = self.g_min + span * max(0.0, weight)
                negative = self.g_min + span * max(0.0, -weight)
                self.crossbar.cell(i, 2 * j).program_conductance(
                    positive, self.g_min, self.g_max,
                    variability=variability, rng=rng)
                self.crossbar.cell(i, 2 * j + 1).program_conductance(
                    negative, self.g_min, self.g_max,
                    variability=variability, rng=rng)

    def multiply(self, vector, v_read=0.2, noise_sigma=0.0, rng=None):
        """Compute ``vector @ weights`` through the array.

        The input is encoded as wordline voltages (scaled to ``v_read``
        full range), bitline currents are differenced pairwise, and the
        result is rescaled to weight units.
        """
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.weights.shape[0],):
            raise MemristorError("input length mismatch")
        registry = telemetry.get_registry()
        enabled = registry.enabled
        if enabled:
            n_in, n_out = self.weights.shape
            registry.counter("inmemory.vmm.multiplies").inc()
            registry.counter("inmemory.vmm.macs").inc(n_in * n_out)
            start = time.perf_counter()
        v_scale = float(np.max(np.abs(vector))) or 1.0
        voltages = vector / v_scale * v_read
        currents = self.crossbar.analog_read(voltages,
                                             noise_sigma=noise_sigma,
                                             rng=rng)
        differential = currents[0::2] - currents[1::2]
        span = self.g_max - self.g_min
        result = differential * (v_scale / v_read) * (self.scale / span)
        if enabled:
            # crossbar throughput: multiply-accumulates per wall second
            profiling.record_throughput("inmemory.vmm.ops", n_in * n_out,
                                        time.perf_counter() - start)
        return result

    def multiply_batch(self, vectors, v_read=0.2, noise_sigma=0.0,
                       rng=None):
        """Compute ``vectors[b] @ weights`` for a stack of inputs.

        Bit-identical to calling :meth:`multiply` on each row with the
        same generator: per-row voltage scaling, the stacked
        matrix-vector products and the one noise draw of
        :meth:`Crossbar.analog_read_batch` all match the scalar path
        exactly -- batching only amortizes the Python, telemetry, and
        conductance-lookup overhead across the stack.
        """
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != self.weights.shape[0]:
            raise MemristorError("need shape (batch, n_in) inputs")
        batch = vectors.shape[0]
        registry = telemetry.get_registry()
        enabled = registry.enabled
        n_in, n_out = self.weights.shape
        if enabled:
            registry.counter("inmemory.vmm.multiplies").inc(batch)
            registry.counter("inmemory.vmm.macs").inc(batch * n_in * n_out)
            start = time.perf_counter()
        # per-row full scale; an all-zero row scales by 1.0 (the
        # scalar path's ``or 1.0``) and NaN propagates as it does there
        v_scales = np.max(np.abs(vectors), axis=1)
        v_scales[v_scales == 0.0] = 1.0
        voltages = vectors / v_scales[:, None] * v_read
        currents = self.crossbar.analog_read_batch(
            voltages, noise_sigma=noise_sigma, rng=rng)
        differential = currents[:, 0::2] - currents[:, 1::2]
        span = self.g_max - self.g_min
        results = (differential * (v_scales / v_read)[:, None]
                   * (self.scale / span))
        if enabled:
            profiling.record_throughput("inmemory.vmm.ops",
                                        batch * n_in * n_out,
                                        time.perf_counter() - start)
        return results

    def relative_error(self, vector, **kwargs):
        """||analog - exact|| / ||exact|| for one input vector."""
        exact = np.asarray(vector, dtype=float) @ self.weights
        analog = self.multiply(vector, **kwargs)
        norm = np.linalg.norm(exact)
        if norm == 0.0:
            return float(np.linalg.norm(analog))
        return float(np.linalg.norm(analog - exact) / norm)


class TiledVmm:
    """A large matrix split across a grid of fixed-size crossbar tiles.

    Real arrays are bounded by wire resistance and sneak paths, so big
    matrices are tiled: tile ``(bi, bj)`` stores the weight block
    ``weights[bi*T:(bi+1)*T, bj*T:(bj+1)*T]`` on its own
    :class:`AnalogVmm`, every tile sharing the *global* weight scale so
    partial products are in common units.  A multiply feeds each input
    slice to its tile row and accumulates partial outputs in row-major
    tile order; :meth:`naive_multiply` is the retained scalar reference
    -- the same accumulation computed per-MAC from freshly rebuilt
    conductance matrices -- that the equivalence tier holds the tiled
    path bit-identical to.

    Parameters
    ----------
    weights : array-like, shape (n_in, n_out)
    tile_size : int
        Maximum rows/cols per tile.
    Remaining keyword arguments match :class:`AnalogVmm`; the
    programming ``rng`` is consumed in row-major tile order.
    """

    def __init__(self, weights, tile_size=32, g_min=1e-6, g_max=1e-4,
                 variability=0.0, rng=None):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2:
            raise MemristorError("weights must be a 2-D matrix")
        if tile_size < 1:
            raise MemristorError("tile_size must be positive")
        self.weights = weights
        self.tile_size = int(tile_size)
        self.scale = float(np.max(np.abs(weights))) or 1.0
        self.g_min = float(g_min)
        self.g_max = float(g_max)
        rng = make_rng(rng)
        n_in, n_out = weights.shape
        self._row_edges = list(range(0, n_in, self.tile_size)) + [n_in]
        self._col_edges = list(range(0, n_out, self.tile_size)) + [n_out]
        self.tiles = []
        for bi in range(len(self._row_edges) - 1):
            row_tiles = []
            r0, r1 = self._row_edges[bi], self._row_edges[bi + 1]
            for bj in range(len(self._col_edges) - 1):
                c0, c1 = self._col_edges[bj], self._col_edges[bj + 1]
                row_tiles.append(AnalogVmm(
                    weights[r0:r1, c0:c1], g_min=g_min, g_max=g_max,
                    variability=variability, rng=rng, scale=self.scale))
            self.tiles.append(row_tiles)
        registry = telemetry.get_registry()
        if registry.enabled:
            registry.counter("inmemory.vmm.tiled_arrays").inc()
            registry.counter("inmemory.vmm.tiles").inc(
                len(self.tiles) * len(self.tiles[0]))

    def _blocks(self):
        for bi in range(len(self._row_edges) - 1):
            r0, r1 = self._row_edges[bi], self._row_edges[bi + 1]
            for bj in range(len(self._col_edges) - 1):
                c0, c1 = self._col_edges[bj], self._col_edges[bj + 1]
                yield self.tiles[bi][bj], (r0, r1), (c0, c1)

    def multiply(self, vector, v_read=0.2, noise_sigma=0.0, rng=None):
        """``vector @ weights`` accumulated over tiles in row-major order."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.weights.shape[0],):
            raise MemristorError("input length mismatch")
        rng = make_rng(rng) if noise_sigma > 0.0 else rng
        result = np.zeros(self.weights.shape[1])
        for tile, (r0, r1), (c0, c1) in self._blocks():
            result[c0:c1] += tile.multiply(vector[r0:r1], v_read=v_read,
                                           noise_sigma=noise_sigma,
                                           rng=rng)
        return result

    def multiply_batch(self, vectors, v_read=0.2, noise_sigma=0.0,
                       rng=None):
        """Row-wise :meth:`multiply` over a ``(batch, n_in)`` stack."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != self.weights.shape[0]:
            raise MemristorError("need shape (batch, n_in) inputs")
        rng = make_rng(rng) if noise_sigma > 0.0 else rng
        return np.stack([self.multiply(row, v_read=v_read,
                                       noise_sigma=noise_sigma, rng=rng)
                         for row in vectors])

    def naive_multiply(self, vector, v_read=0.2, noise_sigma=0.0,
                       rng=None):
        """Scalar reference path: per-tile MACs from fresh G matrices.

        Recomputes every partial product inline from
        :meth:`Crossbar.conductance_matrix` -- rebuilt from the cell
        objects on every call, bypassing the conductance cache and all
        :class:`AnalogVmm` plumbing -- drawing noise in the same
        per-tile order as :meth:`multiply`.  Kept as the
        differential-equivalence reference for the tiled fast path.
        """
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.weights.shape[0],):
            raise MemristorError("input length mismatch")
        rng = make_rng(rng) if noise_sigma > 0.0 else rng
        span = self.g_max - self.g_min
        result = np.zeros(self.weights.shape[1])
        for tile, (r0, r1), (c0, c1) in self._blocks():
            sub = vector[r0:r1]
            v_scale = float(np.max(np.abs(sub))) or 1.0
            voltages = sub / v_scale * v_read
            conductances = tile.crossbar.conductance_matrix()
            currents = voltages @ conductances
            if noise_sigma > 0.0:
                noise_rng = make_rng(rng)
                noise_scale = np.abs(currents) + 1e-12
                currents = currents + noise_rng.normal(
                    0.0, noise_sigma, size=currents.shape) * noise_scale
            differential = currents[0::2] - currents[1::2]
            partial = (differential * (v_scale / v_read)
                       * (self.scale / span))
            result[c0:c1] += partial
        return result


def data_movement_comparison(n_in, n_out, num_multiplies,
                             bytes_per_weight=1, bytes_per_activation=1):
    """Bytes moved across the memory interface: load-store vs in-memory.

    A load-store (von Neumann) pipeline fetches the whole weight matrix
    for every multiply (no on-chip reuse, the worst case the bottleneck
    argument targets) plus the activations; the crossbar moves weights
    once at programming time and then only activations.

    Returns a dict with both totals and their ratio.
    """
    weights_bytes = n_in * n_out * bytes_per_weight
    activations = (n_in + n_out) * bytes_per_activation
    von_neumann = num_multiplies * (weights_bytes + activations)
    in_memory = weights_bytes + num_multiplies * activations
    return {
        "von_neumann_bytes": von_neumann,
        "in_memory_bytes": in_memory,
        "ratio": von_neumann / in_memory,
        "weights_bytes": weights_bytes,
        "activation_bytes_per_multiply": activations,
    }

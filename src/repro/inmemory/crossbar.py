"""The resistive crossbar array: storage, stateful logic, analog reads.

Rows (wordlines) and columns (bitlines) with a memristor at every
crossing.  Three capabilities, all used by the in-memory computing
stack:

* **digital storage** -- per-cell bit read/write,
* **stateful logic pulses** -- row/column voltage patterns that make a
  target cell switch conditionally on other cells' states (the
  mechanism behind the PLIM RM3 instruction; the conditional voltage
  divider is evaluated by :meth:`conditional_set`),
* **analog read** -- bitline current summation ``I_j = sum_i V_i G_ij``,
  the physics that makes a crossbar a one-shot vector-matrix multiplier.
"""

import numpy as np

from ..core import telemetry
from ..core.rngs import make_rng
from .memristor import Memristor, MemristorError


class Crossbar:
    """A rows x cols array of memristors.

    Parameters
    ----------
    rows, cols : int
    device_factory : callable, optional
        Zero-argument callable producing fresh :class:`Memristor` cells
        (lets tests inject variability or alternative device corners).
    """

    def __init__(self, rows, cols, device_factory=None):
        if rows < 1 or cols < 1:
            raise MemristorError("crossbar needs positive dimensions")
        self.rows = int(rows)
        self.cols = int(cols)
        factory = device_factory or Memristor
        self.cells = [[factory() for _ in range(self.cols)]
                      for _ in range(self.rows)]
        # Conductance-matrix cache: rebuilding G from the Python cell
        # objects costs O(rows*cols) interpreter work per analog read
        # and used to dominate the VMM hot path.  Every cell notifies
        # the array on any state change, so the cache can never serve a
        # stale matrix -- even when callers program devices directly
        # through :meth:`cell`.
        self._g_cache = None
        for row in self.cells:
            for device in row:
                device._on_change = self.invalidate_conductances
        # Per-array instruments, bound once (no-op singletons when
        # telemetry is disabled): read/write/MAC accounting is the
        # observable the data-movement argument is made with.
        registry = telemetry.get_registry()
        registry.counter("inmemory.crossbar.arrays").inc()
        self._read_counter = registry.counter("inmemory.crossbar.bit_reads")
        self._write_counter = registry.counter("inmemory.crossbar.bit_writes")
        self._analog_read_counter = registry.counter(
            "inmemory.crossbar.analog_reads")
        self._mac_counter = registry.counter("inmemory.crossbar.macs")
        self._pulse_counter = registry.counter(
            "inmemory.crossbar.logic_pulses")

    # -- digital storage -------------------------------------------------------

    def cell(self, row, col):
        """The device at (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise MemristorError("cell (%d, %d) out of range" % (row, col))
        return self.cells[row][col]

    def write_bit(self, row, col, bit):
        """Program one cell to a logic state."""
        self._write_counter.inc()
        return self.cell(row, col).write_bit(bit)

    def read_bit(self, row, col):
        """Read one cell's logic state (non-destructive)."""
        self._read_counter.inc()
        return self.cell(row, col).read_bit()

    def write_row(self, row, bits):
        """Program a whole wordline from a bit sequence."""
        if len(bits) != self.cols:
            raise MemristorError("row width mismatch")
        for col, bit in enumerate(bits):
            self.write_bit(row, col, bit)

    def read_row(self, row):
        """Read a whole wordline as a list of bits."""
        return [self.read_bit(row, col) for col in range(self.cols)]

    # -- stateful logic ---------------------------------------------------------

    def conditional_set(self, target, operands, v_program=2.0):
        """One stateful-logic pulse: majority-style conditional switching.

        Models the PLIM primitive: the target cell sees a programming
        voltage divided against the parallel combination of the operand
        cells.  The electrical outcome (solving the divider with the
        device model's thresholds) reduces to: the target switches
        toward the *majority* of the operand states when the drive is
        strong enough to cross its thresholds.

        ``target`` and ``operands`` are (row, col) pairs; the target's
        new state becomes ``majority(operand states + [target state])``
        for an odd total count, which is exactly the resistive-majority
        RM3 update when two operands are supplied.
        """
        self._pulse_counter.inc()
        votes = [self.read_bit(r, c) for r, c in operands]
        votes.append(self.read_bit(*target))
        if len(votes) % 2 == 0:
            raise MemristorError(
                "conditional_set needs an odd vote count, got %d"
                % len(votes))
        majority = 1 if sum(votes) * 2 > len(votes) else 0
        # drive the target through a full pulse toward the majority
        cell = self.cell(*target)
        cell.apply_voltage(v_program if majority else -v_program)
        return majority

    # -- analog read --------------------------------------------------------------

    def invalidate_conductances(self):
        """Drop the cached G matrix (cells call this on state changes)."""
        self._g_cache = None

    def _conductances(self):
        """The cached G matrix (shared array -- do not mutate)."""
        if self._g_cache is None:
            self._g_cache = np.array(
                [[cell.conductance for cell in row] for row in self.cells])
        return self._g_cache

    def conductance_matrix(self):
        """The G matrix (rows x cols) of present conductances."""
        return self._conductances().copy()

    def analog_read(self, row_voltages, noise_sigma=0.0, rng=None):
        """Bitline currents for a wordline voltage vector.

        ``I = V . G`` computed by the array itself in one step --
        the in-memory multiply-accumulate.  ``noise_sigma`` adds
        fractional read noise (sense-amplifier/IR-drop proxy).
        """
        voltages = np.asarray(row_voltages, dtype=float)
        if voltages.shape != (self.rows,):
            raise MemristorError("need one voltage per row")
        self._analog_read_counter.inc()
        self._mac_counter.inc(self.rows * self.cols)
        currents = voltages @ self._conductances()
        if noise_sigma > 0.0:
            rng = make_rng(rng)
            scale = np.abs(currents) + 1e-12
            currents = currents + rng.normal(0.0, noise_sigma,
                                             size=currents.shape) * scale
        return currents

    def analog_read_batch(self, voltage_matrix, noise_sigma=0.0, rng=None):
        """Bitline currents for a stack of wordline voltage vectors.

        ``voltage_matrix`` has shape ``(batch, rows)``; returns
        ``(batch, cols)`` currents.  Row ``b`` of the result is
        bit-identical to ``analog_read(voltage_matrix[b], ...)`` with
        the same generator: the rows run as one stack of the same
        matrix-vector products, and the noise is one ``(batch, cols)``
        draw, which takes the same values in the same order as one
        draw per read and leaves the generator in the same state.  So
        batching only amortizes the Python and cache-lookup overhead
        -- the differential equivalence tier holds it to that.
        """
        voltages = np.asarray(voltage_matrix, dtype=float)
        if voltages.ndim != 2 or voltages.shape[1] != self.rows:
            raise MemristorError("need shape (batch, rows) voltages")
        batch = voltages.shape[0]
        self._analog_read_counter.inc(batch)
        self._mac_counter.inc(batch * self.rows * self.cols)
        # a stack of (1, rows) @ (rows, cols) products runs the same
        # matrix-vector kernel as analog_read per row; a plain
        # ``voltages @ G`` matrix product would sum in another order
        currents = np.matmul(voltages[:, None, :],
                             self._conductances())[:, 0, :]
        if noise_sigma > 0.0:
            rng = make_rng(rng)
            scale = np.abs(currents) + 1e-12
            currents = currents + rng.normal(
                0.0, noise_sigma, size=currents.shape) * scale
        return currents

    def __repr__(self):
        return "Crossbar(%dx%d)" % (self.rows, self.cols)

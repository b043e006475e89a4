"""repro: reproduction of "Rebooting Our Computing Models" (DATE 2019).

The library implements, from scratch, the three post-von-Neumann computing
models the paper presents:

* :mod:`repro.quantum` -- a quantum computer modelled as an accelerator in
  a heterogeneous system (Section II): full stack from application layer
  through compiler and micro-architecture down to a simulated qubit chip.
* :mod:`repro.oscillators` -- intrinsic computing with weakly coupled VO2
  relaxation oscillators (Section III): device physics, frequency locking,
  XOR readout, l_k distance norms, and FAST corner detection.
* :mod:`repro.memcomputing` -- digital memcomputing machines built from
  self-organizing logic gates (Section IV): DMM dynamics (Eqs. 1-2), SAT /
  MaxSAT solving, RBM training acceleration, and spin-glass studies.
* :mod:`repro.inmemory` -- the intro's in-memory computing survey made
  executable: a ReRAM crossbar with PLIM resistive-majority logic and
  analog vector-matrix multiplication (refs [1], [21], [22]).

Shared numerical substrate lives in :mod:`repro.core`.

The subpackages load on first access (``repro.quantum``), not with
``import repro``, so a process pays only for the paradigms it uses.
"""

import importlib

__version__ = "1.0.0"

__all__ = ["core", "quantum", "oscillators", "memcomputing", "inmemory"]


def __getattr__(name):
    if name in __all__:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))

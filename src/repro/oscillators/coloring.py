"""Graph vertex coloring via phase dynamics of coupled oscillators.

Section III cites this as a flagship oscillator application: "The
efficiency of a coupled oscillator-based system ... has been shown in
computer vision problems such as vertex coloring of graphs [42]"
(Parihar, Shukla, Jerry, Datta, Raychowdhury, Scientific Reports 2017).

The principle: place one oscillator per vertex and couple oscillators
along graph edges with an interaction that favours *anti-phase* (our
series-RC coupling does exactly this, see Fig. 5 calibration).  The
steady-state phases then spread out so that adjacent vertices sit far
apart on the phase circle; clustering the settled phases yields a color
assignment.  For graphs that are c-colorable with strong structure the
phase ordering recovers a proper coloring -- [42] showed this resolves
the vertices into "the minimum set of phase-distinct groups".

The implementation reuses the physical oscillator network unchanged:
identical oscillators, one coupling branch per edge.
"""

import numpy as np

from ..core.exceptions import OscillatorError
from ..core.signals import instantaneous_phase
from .coupling import CoupledOscillatorNetwork, CouplingBranch
from .locking import DEFAULT_C_C
from .relaxation import RelaxationOscillator


class ColoringResult:
    """Outcome of a phase-dynamics coloring run.

    Attributes
    ----------
    colors : list of int
        Color index per vertex.
    phases : numpy.ndarray
        Settled relative phase per vertex, in cycles within [0, 1).
    conflicts : int
        Edges whose endpoints share a color.
    num_colors : int
        Distinct colors used.
    """

    def __init__(self, colors, phases, conflicts):
        self.colors = list(colors)
        self.phases = np.asarray(phases)
        self.conflicts = int(conflicts)
        self.num_colors = len(set(self.colors))

    @property
    def is_proper(self):
        """True when no edge is monochromatic."""
        return self.conflicts == 0

    def __repr__(self):
        return ("ColoringResult(colors=%d, conflicts=%d)"
                % (self.num_colors, self.conflicts))


def _settled_phases(network, trajectory, threshold=1.0):
    """Relative phases of every oscillator over the final cycles."""
    times = trajectory.times
    reference_times, reference_phase = instantaneous_phase(
        times, trajectory.component(0), threshold)
    phases = [0.0]
    for index in range(1, network.num_oscillators):
        t_i, phi_i = instantaneous_phase(
            times, trajectory.component(index), threshold)
        lo = max(reference_times[0], t_i[0])
        hi = min(reference_times[-1], t_i[-1])
        if hi <= lo:
            raise OscillatorError("oscillator %d never locked a phase"
                                  % index)
        grid = np.linspace(lo, hi, 256)
        difference = np.interp(grid, t_i, phi_i) \
            - np.interp(grid, reference_times, reference_phase)
        steady = difference[len(difference) // 2:]
        phases.append(float(np.mean(steady) % 1.0))
    return np.asarray(phases)


def color_graph(edges, num_vertices, num_colors, r_c=35e3, c_c=DEFAULT_C_C,
                cycles=120, v_gs=1.8, rng_phases=None):
    """Color a graph by relaxing its coupled-oscillator analog.

    Parameters
    ----------
    edges : iterable of (u, v)
        Undirected edges over vertices ``0..num_vertices-1``.
    num_vertices : int
    num_colors : int
        Number of phase bins to quantize into (the target chromatic
        budget; [42]'s phase-ordering step).
    r_c, c_c : float
        Coupling element values (anti-phase-favouring regime).
    cycles : int
        Settling time in oscillation periods.
    rng_phases : seed/Generator, optional
        Randomizes the initial node voltages (initial phases).

    Returns a :class:`ColoringResult`.
    """
    edges = [(int(u), int(v)) for u, v in edges]
    for u, v in edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise OscillatorError("edge (%d, %d) out of range" % (u, v))
        if u == v:
            raise OscillatorError("self-loop on vertex %d" % u)
    if num_colors < 2:
        raise OscillatorError("need at least two colors")
    oscillators = [RelaxationOscillator(v_gs)
                   for _ in range(num_vertices)]
    branches = [CouplingBranch(u, v, r_c=r_c, c_c=c_c) for u, v in edges]
    network = CoupledOscillatorNetwork(oscillators, branches)

    period = oscillators[0].analytic_period()
    low = oscillators[0].v_low
    swing = oscillators[0].v_high - low
    if rng_phases is not None:
        from ..core.rngs import make_rng

        rng = make_rng(rng_phases)
        fractions = rng.uniform(0.1, 0.9, size=num_vertices)
    else:
        fractions = np.linspace(0.25, 0.75, num_vertices)
    initial = [low + fraction * swing for fraction in fractions]
    trajectory, _phases = network.simulate(cycles * period,
                                           initial_voltages=initial)
    phases = _settled_phases(network, trajectory)

    # quantize phases into color bins after rotating so bin edges do not
    # split the tightest cluster: sort phases, cut at the largest gaps
    order = np.argsort(phases, kind="stable")
    sorted_phases = phases[order]
    gaps = np.diff(np.concatenate([sorted_phases,
                                   [sorted_phases[0] + 1.0]]))
    cut_positions = np.sort(np.argsort(gaps, kind="stable")[-num_colors:])
    colors = np.zeros(num_vertices, dtype=int)
    color = 0
    for rank, vertex in enumerate(order):
        colors[vertex] = color
        if rank in cut_positions:
            color += 1
    colors %= num_colors

    conflicts = sum(1 for u, v in edges if colors[u] == colors[v])
    return ColoringResult(colors.tolist(), phases, conflicts)

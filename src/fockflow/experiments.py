"""Prebuilt end-to-end experiments.

Two circuits are built here by hand.  The CLI runs them from the bundled
files ``examples/hh_<stats>.cdl`` and ``examples/swap.cdl``; the stage
lists below stay as the test gate's independent reference for what those
files compile to.  The hyper-hybrid circuit sends two particles, one
right-moving and one left-moving, each through a hybrid splitter whose
reflected arm crosses to the other party; after per-port phase shifts the
two rails on each side are mixed again with hybrid splitters and read out
in coincidence.  The swap variant replaces Bob's splitters with plain
(internal-preserving) ones, which moves the internal/external entanglement
of Alice's photon onto the pair.

Port layout is fixed: Alice detects on D and L, Bob on R and U.  The
particle exchange is implicit in that labeling: the cross-sent arms keep
their port names, so the wiring permutation is the identity and never
appears as a stage.

The cloning/signaling experiments are modeled at the outcome-distribution
level (the cloning device itself has no linear-optical realization to
simulate): Bob's collapsed clone states determine per-degree-of-freedom
Born probabilities, the sorter cascade maps outcome bit strings onto
detector indices, and the decoder guesses which basis Alice measured from
whether all bits agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    ModeBasis,
    StateVector,
    Statistics,
    apply_creation,
    norm_squared,
    substitute,
    vacuum,
)
from .analysis import (
    CoincidenceTable,
    DetectorDistribution,
    MeasurementPartition,
    coincidence_table,
)
from .elements import beam_splitter, compose, hybrid_beam_splitter, phase_shifter

__all__ = [
    "PhaseSettings",
    "CircuitRun",
    "QubitState",
    "CloneEnsemble",
    "SPIN",
    "POLARIZATION",
    "PORTS",
    "ALICE_PORTS",
    "BOB_PORTS",
    "TABLE_KINDS",
    "RNG_ID",
    "Z_ZERO",
    "Z_ONE",
    "X_PLUS",
    "X_MINUS",
    "circuit_basis",
    "circuit_stages",
    "hyper_hybrid_circuit",
    "swap_circuit",
    "run_circuit",
    "partition",
    "run_table",
    "dial_settings",
    "dial_runner",
    "party_occupations",
    "sorter_cascade",
    "signaling_decode_exact",
    "signaling_decode_mc",
]

SPIN = ("down", "up")
POLARIZATION = ("H", "V")
PORTS = ("L", "D", "R", "U")
ALICE_PORTS = ("D", "L")
BOB_PORTS = ("R", "U")
TABLE_KINDS = ("path-path", "spin-spin", "spin-path", "path-spin")

RNG_ID = "numpy.default_rng/PCG64"
MAX_MC_DOFS = 62  # 2^62 is the largest power of two an int64 draw can bound
MAX_MC_DRAWS = 10**7  # int64 readouts per Monte Carlo run: 80 MB per array


@dataclass(frozen=True)
class PhaseSettings:
    """The four per-port phases; Alice dials D and L, Bob dials R and U."""

    phi_l: float = 0.0
    phi_d: float = 0.0
    phi_r: float = 0.0
    phi_u: float = 0.0

    def aggregate(self) -> float:
        """The single angle all coincidence tables depend on."""
        return (self.phi_d - self.phi_l - self.phi_r + self.phi_u) / 2.0


@dataclass(frozen=True)
class CircuitRun:
    name: str
    statistics: Statistics
    settings: PhaseSettings
    basis: ModeBasis
    final_state: StateVector

    def __post_init__(self) -> None:
        n2 = norm_squared(self.final_state)
        if abs(n2 - 1.0) > 1e-9:
            raise ValueError(f"final state norm^2 = {n2}, expected 1")


def circuit_basis(statistics: Statistics, internals=SPIN) -> ModeBasis:
    species = (1, 2) if statistics is Statistics.DISTINGUISHABLE else (0,)
    return ModeBasis(internals=tuple(internals), externals=PORTS, species=species)


def circuit_stages(name: str, basis: ModeBasis, settings: PhaseSettings):
    """The ordered element list of a named circuit.

    Stage 1 splits each input onto a kept arm and a cross-sent arm; the
    phase plates sit between the two splitting layers; stage 2 remixes each
    party's two rails.  The swap circuit uses plain splitters on Bob's
    side (his photon keeps its internal label throughout).
    """
    if name in ("hyperhybrid", "hh"):
        right_split = hybrid_beam_splitter(basis, "R", "D")
        left_split = hybrid_beam_splitter(basis, "L", "U")
        bob_mix = hybrid_beam_splitter(basis, "R", "U")
    elif name == "swap":
        right_split = hybrid_beam_splitter(basis, "R", "D")
        left_split = beam_splitter(basis, "L", "U")
        bob_mix = beam_splitter(basis, "R", "U")
    else:
        raise ValueError(f"unknown circuit {name!r} (have: hyperhybrid, swap)")
    return [
        right_split,
        left_split,
        phase_shifter(basis, "L", settings.phi_l),
        phase_shifter(basis, "D", settings.phi_d),
        phase_shifter(basis, "R", settings.phi_r),
        phase_shifter(basis, "U", settings.phi_u),
        hybrid_beam_splitter(basis, "D", "L"),
        bob_mix,
    ]


def _initial_pair(basis: ModeBasis, statistics: Statistics, internal: str) -> StateVector:
    # the left-mover is created first, the right-mover on top of it, so the
    # operator product reads (right)(left)|0>
    left_species = basis.species[-1]
    right_species = basis.species[0]
    state = vacuum(statistics)
    state = apply_creation(state, basis.mode(internal, "L", left_species))
    state = apply_creation(state, basis.mode(internal, "R", right_species))
    return state


def run_circuit(name: str, statistics: Statistics, settings: PhaseSettings) -> CircuitRun:
    internals = POLARIZATION if name == "swap" else SPIN
    start_label = "H" if name == "swap" else "down"
    if name == "swap" and statistics is not Statistics.BOSON:
        raise ValueError("the swap circuit is defined for boson statistics")
    basis = circuit_basis(statistics, internals)
    initial = _initial_pair(basis, statistics, start_label)
    transform = compose(circuit_stages(name, basis, settings))
    final = substitute(initial, transform)
    return CircuitRun(name, statistics, settings, basis, final)


def hyper_hybrid_circuit(statistics: Statistics, settings: PhaseSettings) -> CircuitRun:
    """Both particles enter spin-down; any of the three statistics."""
    return run_circuit("hyperhybrid", statistics, settings)


def swap_circuit(settings: PhaseSettings) -> CircuitRun:
    """Two horizontally polarized photons; Bob's side uses plain splitters."""
    return run_circuit("swap", Statistics.BOSON, settings)


def partition(run: CircuitRun, party: str, kind: str) -> MeasurementPartition:
    """A party's detector binning by path (external) or by spin (internal).

    Bins are sets of (external index, internal index) slots at the party's ports.
    """
    if party not in ("A", "B"):
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    ports = ALICE_PORTS if party == "A" else BOB_PORTS
    basis = run.basis
    externals = {port: basis.externals.index(port) for port in ports}
    internals = range(len(basis.internals))
    if kind == "external":
        bins = tuple((port, frozenset((e, i) for i in internals)) for port, e in externals.items())
    elif kind == "internal":
        bins = tuple(
            (label, frozenset((e, i) for e in externals.values()))
            for i, label in zip(internals, basis.internals)
        )
    else:
        raise ValueError(f"kind must be 'internal' or 'external', got {kind!r}")
    return MeasurementPartition(party, kind, bins)


def run_table(run: CircuitRun, kind: str) -> CoincidenceTable:
    """Coincidence table for one of the four measurement-kind combinations."""
    if kind not in TABLE_KINDS:
        raise ValueError(f"kind must be one of {TABLE_KINDS}, got {kind!r}")
    kind_a, kind_b = kind.split("-")
    names = {"path": "external", "spin": "internal"}
    return coincidence_table(
        run.final_state, partition(run, "A", names[kind_a]), partition(run, "B", names[kind_b])
    )


def dial_settings(a: float, b: float) -> PhaseSettings:
    """Map two analyzer dials onto the four plate phases.

    Alice's dial turns phi_D by a/2 (her analyzer angle is half her dial,
    the usual Bloch-sphere factor), Bob's turns phi_R by b; the correlation
    then traces cos(a/2 - b), which reaches the CHSH maximum at the
    standard dial quadruple (0, pi, pi/4, -pi/4).
    """
    return PhaseSettings(phi_l=0.0, phi_d=0.5 * a, phi_r=b, phi_u=0.0)


def dial_runner(name: str, statistics: Statistics, kind: str):
    """(dial a, dial b) -> coincidence table, for CHSH evaluation."""

    def dialed(a: float, b: float) -> CoincidenceTable:
        return run_table(run_circuit(name, statistics, dial_settings(a, b)), kind)

    return dialed


def party_occupations(run: CircuitRun, party: str) -> CoincidenceTable:
    """Mean occupation of each (internal x port) mode on one party's side.

    This is the diagonal of the single-particle reduced density matrix,
    arranged as a 2x2 table; its factorization residual measures whether
    the party's internal and external readouts are correlated.
    """
    ports = ALICE_PORTS if party == "A" else BOB_PORTS
    basis = run.basis
    n2 = norm_squared(run.final_state)
    occ = np.zeros((len(basis.internals), len(ports)))
    for mono, amp in run.final_state.terms.items():
        w = abs(amp) ** 2 * mono.norm_factor() / n2
        for mode, count in mono.entries:
            if mode.external.name in ports:
                i = basis.internals.index(mode.internal.name)
                j = ports.index(mode.external.name)
                occ[i, j] += w * count
    return CoincidenceTable(tuple(basis.internals), tuple(ports), occ)


# --- cloning, sorter cascades, and the signaling decoder ---


@dataclass(frozen=True)
class QubitState:
    """Single-qubit amplitudes in the computational (Z) basis."""

    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        n = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"qubit norm^2 = {n}, expected 1")

    def born(self) -> tuple[float, float]:
        return abs(self.amp0) ** 2, abs(self.amp1) ** 2


Z_ZERO = QubitState(1.0, 0.0)
Z_ONE = QubitState(0.0, 1.0)
X_PLUS = QubitState(1 / math.sqrt(2), 1 / math.sqrt(2))
X_MINUS = QubitState(1 / math.sqrt(2), -1 / math.sqrt(2))


@dataclass(frozen=True)
class CloneEnsemble:
    """n_dofs identical copies of one qubit state, one per degree of freedom."""

    n_dofs: int
    per_dof_state: QubitState

    def __post_init__(self) -> None:
        if self.n_dofs < 1:
            raise ValueError("need at least one degree of freedom")


def sorter_cascade(clones: CloneEnsemble) -> DetectorDistribution:
    """Detector distribution after sorting each degree of freedom in turn.

    Detector index is 1 + the binary number spelled by the per-DOF readout
    bits, first DOF most significant, so all-zeros lands in detector 1 and
    all-ones in detector 2^n.
    """
    p0, p1 = clones.per_dof_state.born()
    # each DOF appends the least significant bit, so every string's product
    # multiplies its Born weights in bit order, first DOF first
    probs = np.ones(1)
    for _ in range(clones.n_dofs):
        probs = np.outer(probs, (p0, p1)).ravel()
    return DetectorDistribution({k + 1: p for k, p in enumerate(probs.tolist()) if p > 0.0})


def _one_of(dofs, copies):
    if (dofs is None) == (copies is None):
        raise ValueError("give exactly one of dofs= or copies=")
    count = dofs if copies is None else copies
    if count < 1:
        raise ValueError("count must be at least 1")
    return count


def signaling_decode_exact(dofs: int | None = None, copies: int | None = None) -> float:
    """Probability that Bob correctly reads Alice's basis choice: 1 - 2^-count.

    dofs variant: one particle carries N clone DOFs; Bob decodes "Z" when
    every readout bit agrees, "X" otherwise, and Alice's choice is uniform.
    The Z branch always decodes correctly; the X branch fails only when its
    uniform N-bit readout happens to agree (2 of 2^N strings), so the
    success probability is 1/2 + 1/2 (1 - 2^(1-N)).

    copies variant: M separate two-DOF clone particles, evaluated in the
    signaling branch (Alice chose X): Bob decodes correctly as soon as any
    copy shows disagreeing bits, and each copy agrees with probability 1/2.

    Both equal 1 - 2^-count, returned as the correctly rounded float.
    """
    return 1.0 - math.ldexp(1.0, -_one_of(dofs, copies))


def signaling_decode_mc(
    dofs: int | None = None,
    copies: int | None = None,
    trials: int = 10**6,
    seed: int = 0,
):
    """Monte Carlo mirror of signaling_decode_exact: (estimate, stderr)."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if dofs is not None and dofs > MAX_MC_DOFS:
        raise ValueError(
            f"Monte Carlo draws each readout as one int64; dofs must be at most {MAX_MC_DOFS}"
        )
    draws = trials * (copies or 1)
    if draws > MAX_MC_DRAWS:
        raise ValueError(
            f"Monte Carlo needs {draws} int64 draws (trials x copies); the cap is {MAX_MC_DRAWS}"
        )
    rng = np.random.default_rng(seed)
    if dofs is not None:
        n = _one_of(dofs, copies)
        alice_x = rng.integers(0, 2, size=trials).astype(bool)
        readout = rng.integers(0, 2**n, size=trials, dtype=np.int64)
        agree = (readout == 0) | (readout == 2**n - 1)
        correct = np.where(alice_x, ~agree, True)
    else:
        m = _one_of(dofs, copies)
        readout = rng.integers(0, 4, size=(trials, m), dtype=np.int64)
        agree = (readout == 0) | (readout == 3)
        correct = ~agree.all(axis=1)
    p = float(np.mean(correct))
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return p, stderr

"""Prebuilt experiments: the hand-built reference circuits, the dials and the cascade.

The CLI reads ``PHASES`` (the four standard phase names), ``dial_settings``
(the CHSH dial map) and ``TABLE_KINDS`` (the four readout kinds) from here.
A phase point is the binding that ``cdl.execute`` takes, ``{name: radians}``
keyed by ``PHASES``, and a name it leaves out is 0.0.

Two circuits are also built here by hand, and only the test gate runs them.
The CLI runs the bundled files ``examples/hh_<stats>.cdl`` and
``examples/swap.cdl`` instead; ``run_circuit`` stays as the gate's
independent, state-level reference for what those files compile to, and
the gate requires the same final state, bit for bit.  It reads nothing
out: every table comes from a compiled file, through ``cdl.rebin`` and
``analysis.coincidence_table``.  The hyper-hybrid circuit sends two
particles, one right-moving and one left-moving, each through a hybrid
splitter whose reflected arm crosses to the other party; after per-port
phase shifts the two rails on each side are mixed again with hybrid
splitters.  The swap variant replaces Bob's splitters with plain
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
from itertools import compress

from ._record import Record
from .algebra import ModeBasis, StateVector, Statistics, create, norm_squared, substitute
from .elements import beam_splitter, compose, hybrid_beam_splitter, phase_shifter

__all__ = [
    "CircuitRun",
    "QubitState",
    "SPIN",
    "POLARIZATION",
    "PORTS",
    "PHASES",
    "TABLE_KINDS",
    "RNG_ID",
    "Z_ZERO",
    "Z_ONE",
    "X_PLUS",
    "X_MINUS",
    "circuit_basis",
    "circuit_stages",
    "run_circuit",
    "dial_settings",
    "sorter_cascade",
    "signaling_decode_exact",
    "signaling_decode_mc",
]

SPIN = ("down", "up")
POLARIZATION = ("H", "V")
PORTS = ("L", "D", "R", "U")
PHASES = ("phiL", "phiD", "phiR", "phiU")  # Alice dials D and L, Bob dials R and U
TABLE_KINDS = ("path-path", "spin-spin", "spin-path", "path-spin")

RNG_ID = "numpy.default_rng/PCG64"
MAX_MC_DOFS = 62  # 2^62 is the largest power of two an int64 draw can bound
MAX_MC_DRAWS = 10**7  # int64 readouts per Monte Carlo run: 80 MB per array
# up to here a pure-Python PCG64 replay costs less than importing numpy
MAX_PURE_MC_DRAWS = 2**17


class CircuitRun(Record):
    _fields = ("name", "statistics", "phases", "basis", "final_state")

    def __init__(
        self,
        name: str,
        statistics: Statistics,
        phases: dict,
        basis: ModeBasis,
        final_state: StateVector,
    ) -> None:
        n2 = norm_squared(final_state)
        if abs(n2 - 1.0) > 1e-9:
            raise ValueError(f"final state norm^2 = {n2}, expected 1")
        d = self.__dict__
        d["name"], d["statistics"], d["phases"] = name, statistics, phases
        d["basis"], d["final_state"] = basis, final_state


def circuit_basis(statistics: Statistics, internals=SPIN) -> ModeBasis:
    species = (1, 2) if statistics is Statistics.DISTINGUISHABLE else (0,)
    return ModeBasis(internals=tuple(internals), externals=PORTS, species=species)


def circuit_stages(name: str, basis: ModeBasis, phases: dict):
    """The ordered element list of a named circuit.

    Stage 1 splits each input onto a kept arm and a cross-sent arm; the
    phase plates, bound from the phase point ``phases``, sit between the
    two splitting layers; stage 2 remixes each
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
    plates = [phase_shifter(basis, port, phases.get(k, 0.0)) for port, k in zip(PORTS, PHASES)]
    return [right_split, left_split, *plates, hybrid_beam_splitter(basis, "D", "L"), bob_mix]


def _initial_pair(basis: ModeBasis, statistics: Statistics, internal: str) -> StateVector:
    # the operator product reads (right)(left)|0>
    right = basis.index_of(basis.mode(internal, "R", basis.species[0]))
    left = basis.index_of(basis.mode(internal, "L", basis.species[-1]))
    return create(basis, statistics, [right, left])


def run_circuit(name: str, statistics: Statistics, phases: dict) -> CircuitRun:
    internals = POLARIZATION if name == "swap" else SPIN
    start_label = "H" if name == "swap" else "down"
    if name == "swap" and statistics is not Statistics.BOSON:
        raise ValueError("the swap circuit is defined for boson statistics")
    basis = circuit_basis(statistics, internals)
    initial = _initial_pair(basis, statistics, start_label)
    transform = compose(circuit_stages(name, basis, phases))
    final = substitute(initial, transform)
    return CircuitRun(name, statistics, phases, basis, final)


def dial_settings(a: float, b: float) -> dict:
    """Map two analyzer dials onto the four plate phases.

    Alice's dial turns phi_D by a/2 (her analyzer angle is half her dial,
    the usual Bloch-sphere factor), Bob's turns phi_R by b; the correlation
    then traces cos(a/2 - b), which reaches the CHSH maximum at the
    standard dial quadruple (0, pi, pi/4, -pi/4).
    """
    return dict(zip(PHASES, (0.0, 0.5 * a, b, 0.0)))


# --- cloning, sorter cascades, and the signaling decoder ---


class QubitState(Record):
    """Single-qubit amplitudes in the computational (Z) basis.

    The cascade's one normalization check: norm^2 must lie within 1e-9 of
    1, so a NaN amplitude is rejected too.  ``sorter_cascade`` checks no
    sum of its own.
    """

    _fields = ("amp0", "amp1")

    def __init__(self, amp0: complex, amp1: complex) -> None:
        n = abs(amp0) ** 2 + abs(amp1) ** 2
        if not abs(n - 1.0) <= 1e-9:  # a NaN norm fails every comparison
            raise ValueError(f"qubit norm^2 = {n}, expected 1")
        d = self.__dict__
        d["amp0"], d["amp1"] = amp0, amp1

    def born(self) -> tuple[float, float]:
        return abs(self.amp0) ** 2, abs(self.amp1) ** 2


Z_ZERO = QubitState(1.0, 0.0)
Z_ONE = QubitState(0.0, 1.0)
X_PLUS = QubitState(1 / math.sqrt(2), 1 / math.sqrt(2))
X_MINUS = QubitState(1 / math.sqrt(2), -1 / math.sqrt(2))


def sorter_cascade(state: QubitState, dofs: int) -> dict:
    """{detector index: probability} after sorting each of ``dofs`` clones of ``state``.

    Each degree of freedom carries one copy of ``state``.  Detector index is
    1 + the binary number spelled by the per-DOF readout bits, first DOF
    most significant, so all-zeros lands in detector 1 and all-ones in
    detector 2^dofs.  Detectors of probability 0 are left out, and keys
    come in increasing order.  The values sum to the state's norm^2 to the
    power ``dofs``, up to rounding; ``QubitState`` is the one check on it.
    """
    if dofs < 1:
        raise ValueError("need at least one degree of freedom")
    p0, p1 = state.born()
    # each DOF appends the least significant bit, so every string's product
    # multiplies its Born weights in bit order, first DOF first
    probs = [1.0]
    for _ in range(dofs):
        probs = [q * b for q in probs for b in (p0, p1)]
    return {k + 1: p for k, p in enumerate(probs) if p > 0.0}


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
    """Monte Carlo mirror of signaling_decode_exact: (estimate, stderr).

    The draws are those of numpy's ``default_rng(seed)`` (``RNG_ID``) on
    both paths: up to ``MAX_PURE_MC_DRAWS`` draws (trials x copies) replay
    its PCG64 stream in pure Python, so a short run loads no numpy, and
    larger runs import numpy here, so that no other command loads it.
    """
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
    if seed < 0:  # default_rng's own message names neither the seed nor its value
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    _one_of(dofs, copies)
    correct = _correct_pure if draws <= MAX_PURE_MC_DRAWS else _correct_numpy
    p = correct(dofs, copies, trials, seed) / trials
    stderr = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return p, stderr


def _correct_numpy(dofs, copies, trials, seed) -> int:
    """How many of ``trials`` decodes are correct, drawn by numpy's ``Generator``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    if copies is not None:
        readout = rng.integers(0, 4, size=(trials, copies), dtype=np.int64)
        agree = (readout == 0) | (readout == 3)
        return int(np.count_nonzero(~agree.all(axis=1)))
    alice_x = rng.integers(0, 2, size=trials).astype(bool)
    readout = rng.integers(0, 2**dofs, size=trials, dtype=np.int64)
    agree = (readout == 0) | (readout == 2**dofs - 1)
    return trials - int(np.count_nonzero(alice_x & agree))


def _correct_pure(dofs, copies, trials, seed) -> int:
    """``_correct_numpy``'s count from the same draws, replayed by ``_pcg64``."""
    from ._pcg64 import Generator

    rng = Generator(seed)
    if copies is not None:
        split = [0 < r < 3 for r in rng.integers(2, trials * copies)]
        return sum(any(split[i : i + copies]) for i in range(0, trials * copies, copies))
    alice_x = rng.integers(1, trials)
    readout = rng.integers(dofs, trials)
    agree = (0, (1 << dofs) - 1)
    return trials - sum(1 for r in compress(readout, alice_x) if r in agree)

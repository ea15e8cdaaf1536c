"""Unitary mode transforms for passive linear-optical elements, as slot maps.

A transform is a sequence of slot maps over a basis's (internal, external)
slots, applied in order.  A map sends each slot it names to its images,
((slot, amplitude), ...), and every other slot passes through.  Column m of
the transform, in a_m^dag -> sum_n U[n, m] a_n^dag, is slot m's unit vector
pushed through every map, so no square matrix is built.  Every element is
one map sending a slot to at most two images; any passive unitary factors
into such two-mode elements (Reck et al., PRL 73, 58 (1994)).

Conventions frozen here:
- Balanced splitters are symmetric: transmission amplitude 1/sqrt(2) real,
  reflection i/sqrt(2).
- The hybrid splitter preserves the internal label on transmission and
  flips it (with the i) on reflection; it requires a two-element internal
  label set.
- Elements act identically on every species: passive optics cannot address
  particle identity.  ``column`` places the pushed slot column in every
  species block of the basis, so this holds by construction.
- Sorters and exchange wirings are permutations.
"""

from __future__ import annotations

import cmath
import math
from ._record import Record
from .algebra import ModeBasis, UnknownMode

__all__ = [
    "ModeTransform",
    "DuplicatePort",
    "InternalSetNotBinary",
    "IncompleteRouting",
    "NotBijective",
    "BasisMismatch",
    "phase_shifter",
    "beam_splitter",
    "hybrid_beam_splitter",
    "dof_sorter",
    "exchange_wiring",
    "compose",
    "verify_unitary",
]

COLUMN_DROP_TOLERANCE = 1e-14


class DuplicatePort(ValueError):
    """A splitter was given coinciding or ambiguously overlapping ports."""


class InternalSetNotBinary(ValueError):
    """A hybrid splitter needs exactly two internal labels to flip between."""


class IncompleteRouting(ValueError):
    """A sorter's routing map does not cover the selected label set."""


class NotBijective(ValueError):
    """A relabeling could not be completed to a permutation."""


class BasisMismatch(ValueError):
    """Transforms to be composed are over different mode bases."""


class ModeTransform(Record):
    """A linear map on creation operators over a fixed mode basis.

    ``maps`` holds slot maps in application order: each takes a slot index
    of ``basis.slots`` to a tuple of (slot index, amplitude) images, and a
    slot it does not name passes through.  Maps are shared, never written.

    ``column(m)`` pushes basis index m's slot unit vector through every
    map, touching only the entries a map names, and keeps those above
    ``COLUMN_DROP_TOLERANCE`` as (row index, complex value) pairs, rows
    shifted into m's species block and ascending.  Each column is pushed
    on first read and kept, so ``substitute`` pays only for the columns its
    state occupies; ``columns`` lists every basis index's column.  The
    column cache takes no part in equality, hash or repr.
    """

    _fields = ("basis", "maps")

    def __init__(self, basis: ModeBasis, maps: tuple) -> None:
        d = self.__dict__
        d["basis"], d["maps"], d["_columns"] = basis, maps, {}

    def column(self, m: int) -> tuple:
        col = self._columns.get(m)
        if col is None:
            slot = m % len(self.basis.slots)
            vec = {slot: 1.0}
            for images in self.maps:
                # every named slot leaves before any image lands, so it keeps only images
                moved = [(s, vec.pop(s)) for s in images if s in vec]
                for s, v in moved:
                    for k, amp in images[s]:
                        vec[k] = vec.get(k, 0.0) + amp * v
            col = self._columns[m] = tuple(
                (k + m - slot, complex(vec[k])) for k in sorted(vec) if abs(vec[k]) > COLUMN_DROP_TOLERANCE
            )
        return col

    @property
    def columns(self) -> tuple:
        return tuple(self.column(m) for m in range(len(self.basis)))


def _slot_element(basis: ModeBasis, moves: dict) -> ModeTransform:
    """The element sending each moved slot to its images, on every species alike.

    ``moves`` maps an (internal, external) name pair to its (output pair,
    amplitude) images; slots it does not name pass through.  The result is
    one slot map over ``basis.slots``, whatever the species count.
    """
    slots = basis.slots
    images = {slots[src]: tuple((slots[dst], amp) for dst, amp in out) for src, out in moves.items()}
    return ModeTransform(basis, (images,))


def _external(basis: ModeBasis, name: str) -> str:
    if name not in basis.externals:
        raise UnknownMode(f"external label {name!r} not declared (have {basis.externals})")
    return name


def phase_shifter(basis: ModeBasis, port: str, phase: float) -> ModeTransform:
    """e^{i phase} on every mode at the given external port, identity elsewhere.

    A NaN or infinite phase raises ``ValueError``: its factor would be NaN,
    and the state would lose those amplitudes without a word.
    """
    _external(basis, port)
    if not math.isfinite(phase):
        raise ValueError(f"phase at port {port!r} must be finite, got {phase}")
    factor = cmath.exp(1j * phase)
    moves = {(il, port): [((il, port), factor)] for il in basis.internals}
    return _slot_element(basis, moves)


def _splitter(basis, in_a, in_b, out_t, out_r, flip):
    out_t = in_a if out_t is None else out_t
    out_r = in_b if out_r is None else out_r
    for p in (in_a, in_b, out_t, out_r):
        _external(basis, p)
    if in_a == in_b or out_t == out_r:
        raise DuplicatePort(f"splitter ports must differ: in ({in_a},{in_b}) out ({out_t},{out_r})")
    ins, outs = {in_a, in_b}, {out_t, out_r}
    if ins != outs and ins & outs:
        raise DuplicatePort(
            f"output ports must reuse both input ports or neither: {sorted(ins)} vs {sorted(outs)}"
        )

    flip = flip or {il: il for il in basis.internals}
    t, r = 1 / math.sqrt(2.0), 1j / math.sqrt(2.0)
    # (input port, transmitted port, reflected port); disjoint output pairs
    # get the reverse direction filled with the same mixer to stay unitary
    routes = [(in_a, out_t, out_r), (in_b, out_r, out_t)]
    if ins != outs:
        routes += [(out_t, in_a, in_b), (out_r, in_b, in_a)]
    moves = {
        (il, port): [((il, p_t), t), ((flip[il], p_r), r)]
        for il in basis.internals
        for port, p_t, p_r in routes
    }
    return _slot_element(basis, moves)


def beam_splitter(basis, in_a, in_b, out_t=None, out_r=None):
    """Balanced splitter preserving the internal label.

    a(s, in_a) -> (a(s, out_t) + i a(s, out_r)) / sqrt(2)
    a(s, in_b) -> (a(s, out_r) + i a(s, out_t)) / sqrt(2)

    Output ports default to the input ports (the self-looped arm case).
    """
    return _splitter(basis, in_a, in_b, out_t, out_r, None)


def hybrid_beam_splitter(basis, in_a, in_b, out_t=None, out_r=None):
    """Balanced splitter flipping the internal label on the reflected arm.

    a(s, in_a) -> (a(s, out_t) + i a(flip s, out_r)) / sqrt(2)
    a(s, in_b) -> (a(s, out_r) + i a(flip s, out_t)) / sqrt(2)

    The flip entangles internal with external, which is what makes this the
    circuit's entangling element.
    """
    if len(basis.internals) != 2:
        raise InternalSetNotBinary(
            f"hybrid splitter needs exactly 2 internal labels, got {basis.internals}"
        )
    lo, hi = basis.internals
    return _splitter(basis, in_a, in_b, out_t, out_r, {lo: hi, hi: lo})


def dof_sorter(basis: ModeBasis, routing: dict, port: str):
    """Route the particles arriving at ``port`` by their internal label.

    A particle with internal label s is sent to external port routing[s].
    The map is the product of the transpositions (s, port) <-> (s,
    routing[s]), so it is its own inverse; routed-to ports are expected to
    be unoccupied upstream, the way a fresh detector rail is.  Sorting by
    the external label is a wholesale port permutation: ``exchange_wiring``.
    """
    _external(basis, port)
    missing = [s for s in basis.internals if s not in routing]
    if missing:
        raise IncompleteRouting(f"internal labels without a route: {missing}")
    targets = [routing[s] for s in basis.internals]
    for tgt in targets:
        _external(basis, tgt)
    if len(set(targets)) != len(targets):
        raise NotBijective(f"internal sorter targets must be distinct: {targets}")
    moves = {}
    for s in basis.internals:
        if routing[s] != port:
            moves[(s, port)] = [((s, routing[s]), 1.0)]
            moves[(s, routing[s])] = [((s, port), 1.0)]
    return _slot_element(basis, moves)


def exchange_wiring(basis: ModeBasis, relabel: dict) -> ModeTransform:
    """Rename external ports by a partial bijection, internal labels untouched.

    Targets that are not themselves relabeled are sent back to the head of
    their chain, so a one-way map like {D: DA} completes to the swap
    {D: DA, DA: D}; unmentioned ports stay fixed.  The result is the
    permutation moving slot (s, e) -> (s, complete[e]), in every species.
    """
    for k, v in relabel.items():
        _external(basis, k)
        _external(basis, v)
    complete = dict(relabel)
    if len(set(complete.values())) != len(complete):
        raise NotBijective(f"relabel targets repeat: {relabel}")
    reverse = {v: k for k, v in complete.items()}
    for v in list(complete.values()):
        if v not in complete:
            head = v
            while head in reverse:
                head = reverse[head]
            complete[v] = head
    for e in basis.externals:
        complete.setdefault(e, e)
    if sorted(complete.values()) != sorted(basis.externals):
        raise NotBijective(f"completed relabel is not a permutation: {complete}")
    moves = {(il, e): [((il, complete[e]), 1.0)] for il in basis.internals for e in complete}
    return _slot_element(basis, moves)


def compose(stages) -> ModeTransform:
    """The stages one after another, in application order (first stage acts first).

    Every stage must be over the first stage's basis.  The result chains
    the stages' slot maps; nothing is multiplied until a ``column`` is read.
    """
    stages = list(stages)
    if not stages:
        raise ValueError("compose needs at least one stage")
    basis = stages[0].basis
    for k, t in enumerate(stages[1:], 1):
        if t.basis is not basis and t.basis != basis:
            raise BasisMismatch(f"stage {k} is over {t.basis}, not {basis}")
    return ModeTransform(basis, tuple(m for t in stages for m in t.maps))


def verify_unitary(t: ModeTransform, tol: float = 1e-12) -> bool:
    """True iff max |C^dag C - I| over the slot columns C is below tol."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    cols = [dict(t.column(k)) for k in range(len(t.basis.slots))]
    gram = [[sum(a[i].conjugate() * v for i, v in b.items() if i in a) for b in cols] for a in cols]
    return max(abs(g - (j == k)) for j, row in enumerate(gram) for k, g in enumerate(row)) < tol

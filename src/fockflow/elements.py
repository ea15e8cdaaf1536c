"""Unitary mode transforms for passive linear-optical elements.

Every element is a square complex matrix over a declared mode basis, with
matrix[n, m] the coefficient of output mode n for input mode m, so that a
creation operator rewrites as a_m^dag -> sum_n matrix[n, m] a_n^dag.

Conventions frozen here:
- Balanced splitters are symmetric: transmission amplitude 1/sqrt(2) real,
  reflection i/sqrt(2).
- The hybrid splitter preserves the internal label on transmission and
  flips it (with the i) on reflection; it requires a two-element internal
  label set.
- Elements act identically on every species: passive optics cannot address
  particle identity.  Every element is built by ``_slot_element`` as one
  species' slot matrix repeated down the block diagonal, so this holds by
  construction.
- Sorters and exchange wirings are permutation matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import ModeBasis, UnknownMode

__all__ = [
    "ModeTransform",
    "DuplicatePort",
    "InternalSetNotBinary",
    "IncompleteRouting",
    "NotBijective",
    "BasisMismatch",
    "identity",
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


@dataclass(frozen=True)
class ModeTransform:
    """A linear map on creation operators over a fixed mode basis.

    ``columns[m]`` holds the entries of column m above
    ``COLUMN_DROP_TOLERANCE`` as (row index, complex value) pairs, row
    indices ascending; substitution iterates these instead of scanning the
    dense matrix.  They are built on first read, so only the transforms
    that ``substitute`` sees (usually the composed one) pay for them.
    """

    basis: ModeBasis
    matrix: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        n = len(self.basis)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (n, n):
            raise ValueError(f"matrix shape {mat.shape} does not match basis size {n}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @cached_property
    def columns(self) -> tuple:
        keep = np.abs(self.matrix) > COLUMN_DROP_TOLERANCE
        return tuple(
            tuple(zip(np.flatnonzero(k).tolist(), col[k].tolist()))
            for col, k in zip(self.matrix.T, keep.T)
        )


def identity(basis: ModeBasis, name: str = "identity") -> ModeTransform:
    return _slot_element(basis, {}, name)


def _slot_element(basis: ModeBasis, moves: dict, name: str) -> ModeTransform:
    """The element sending each moved slot to its images, on every species alike.

    ``moves`` maps an (internal, external) name pair to its (output pair,
    amplitude) images; slots it does not name pass through.  The slot
    matrix over ``basis.slots`` fills every species block of the diagonal.
    """
    slots = np.eye(len(basis.slots), dtype=complex)
    for source, images in moves.items():
        m = basis.slots[source]
        slots[m, m] = 0.0
        for target, amp in images:
            slots[basis.slots[target], m] = amp
    return ModeTransform(basis, np.kron(np.eye(len(basis.species)), slots), name)


def _external(basis: ModeBasis, name: str) -> str:
    if name not in basis.externals:
        raise UnknownMode(f"external label {name!r} not declared (have {basis.externals})")
    return name


def phase_shifter(basis: ModeBasis, port: str, phase: float) -> ModeTransform:
    """e^{i phase} on every mode at the given external port, identity elsewhere."""
    _external(basis, port)
    factor = np.exp(1j * phase)
    moves = {(il, port): [((il, port), factor)] for il in basis.internals}
    return _slot_element(basis, moves, f"phase {port} {phase:g}")


def _splitter(basis, in_a, in_b, out_t, out_r, flip, name):
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
    t, r = 1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)
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
    return _slot_element(basis, moves, name)


def beam_splitter(basis, in_a, in_b, out_t=None, out_r=None):
    """Balanced splitter preserving the internal label.

    a(s, in_a) -> (a(s, out_t) + i a(s, out_r)) / sqrt(2)
    a(s, in_b) -> (a(s, out_r) + i a(s, out_t)) / sqrt(2)

    Output ports default to the input ports (the self-looped arm case).
    """
    return _splitter(
        basis, in_a, in_b, out_t, out_r, None, f"bs {in_a} {in_b} -> {out_t or in_a} {out_r or in_b}"
    )


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
    return _splitter(
        basis,
        in_a,
        in_b,
        out_t,
        out_r,
        {lo: hi, hi: lo},
        f"hbs {in_a} {in_b} -> {out_t or in_a} {out_r or in_b}",
    )


def dof_sorter(basis: ModeBasis, routing: dict, port: str):
    """Route the particles arriving at ``port`` by their internal label.

    A particle with internal label s is sent to external port routing[s].
    The matrix is the product of the transpositions (s, port) <-> (s,
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
    return _slot_element(basis, moves, f"sorter internal {port}")


def exchange_wiring(basis: ModeBasis, relabel: dict) -> ModeTransform:
    """Rename external ports by a partial bijection, internal labels untouched.

    Targets that are not themselves relabeled are sent back to the head of
    their chain, so a one-way map like {D: DA} completes to the swap
    {D: DA, DA: D}; unmentioned ports stay fixed.  The result is the
    permutation matrix moving (s, e) -> (s, complete[e]) for every species.
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
    return _slot_element(basis, moves, "exchange")


def compose(stages, basis: ModeBasis | None = None) -> ModeTransform:
    """Product of the stages in application order (first stage acts first).

    Every stage must be over one basis: the first stage's, or ``basis`` when
    given (which an empty stage list needs).
    """
    stages = list(stages)
    if basis is None:
        if not stages:
            raise ValueError("compose of no stages needs an explicit basis")
        basis = stages[0].basis
    total = np.eye(len(basis), dtype=complex)
    for t in stages:
        if t.basis != basis:
            raise BasisMismatch(f"stage {t.name!r} is over {t.basis}, not {basis}")
        total = t.matrix @ total
    return ModeTransform(basis, total, "composed")


def verify_unitary(t: ModeTransform, tol: float = 1e-12) -> bool:
    """True iff max |T^dag T - I| entry is below tol."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    gram = t.matrix.conj().T @ t.matrix
    return bool(np.max(np.abs(gram - np.eye(len(t.basis)))) < tol)

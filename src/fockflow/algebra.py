"""Second-quantized state algebra for few-particle interferometry.

A state is a complex combination of creation-operator monomials applied to
the vacuum.  Exchange statistics enter exclusively through the reordering
rule used to bring operator products into canonical order: fermionic
operators pick up the parity of the sorting permutation and annihilate the
term when a mode repeats, while bosonic operators and operators of distinct
distinguishable species commute freely and accumulate occupation numbers.

Modes are discrete labels (Kronecker deltas everywhere, no continuous
spectra), ordered lexicographically by (species id, external index,
internal index).  Fermionic amplitudes are only defined relative to a fixed
ordering convention, so that order is frozen here once; detector
probabilities never depend on it.

Stored coefficients are taken relative to raw operator products, not
normalized number states.  ``amplitude`` converts to the normalized-ket
convention by multiplying with sqrt(prod n_k!), which is what makes
outcome probabilities of multiply-occupied bosonic modes sum to one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "Statistics",
    "Label",
    "Mode",
    "ModeBasis",
    "Monomial",
    "StateVector",
    "UnknownMode",
    "ZeroNorm",
    "VACUUM",
    "vacuum",
    "canonicalize",
    "apply_creation",
    "substitute",
    "amplitude",
    "norm_squared",
    "outcome_probability",
    "add",
    "scale",
    "particle_count",
]

INDISTINCT_SPECIES = 0

DEFAULT_PRUNE_TOLERANCE = 1e-12


class UnknownMode(ValueError):
    """A mode was used that the relevant basis does not contain."""


class ZeroNorm(ValueError):
    """Probabilities were requested from a state with vanishing norm."""


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"
    DISTINGUISHABLE = "distinguishable"


@dataclass(frozen=True)
class Label:
    """A symbol from a declared finite ordered label set."""

    name: str
    index: int


@dataclass(frozen=True)
class Mode:
    """One creation-operator slot: (species, internal label, external label).

    Species id 0 is reserved for indistinguishable particles; distinct
    distinguishable particles carry ids >= 1 and never interfere.
    """

    species: int
    internal: Label
    external: Label

    def order_key(self) -> tuple[int, int, int]:
        return (self.species, self.external.index, self.internal.index)

    def __lt__(self, other: "Mode") -> bool:
        return self.order_key() < other.order_key()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        tag = f"{self.internal.name},{self.external.name}"
        if self.species != INDISTINCT_SPECIES:
            tag = f"{self.species}:{tag}"
        return f"({tag})"


@dataclass(frozen=True)
class ModeBasis:
    """The declared label sets and the ordered mode list they generate.

    ``modes`` enumerates every (species, internal, external) combination in
    canonical order; matrices over the basis index rows and columns by this
    enumeration.
    """

    internals: tuple[str, ...]
    externals: tuple[str, ...]
    species: tuple[int, ...] = (INDISTINCT_SPECIES,)
    modes: tuple[Mode, ...] = field(init=False, compare=False, repr=False)
    _index: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for kind, labels in (("internal", self.internals), ("external", self.externals)):
            if not labels:
                raise ValueError(f"{kind} label set must be nonempty")
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate {kind} label in {labels!r}")
        if len(set(self.species)) != len(self.species) or not self.species:
            raise ValueError(f"species ids must be nonempty and unique: {self.species!r}")
        ints = [Label(n, i) for i, n in enumerate(self.internals)]
        exts = [Label(n, i) for i, n in enumerate(self.externals)]
        modes = tuple(
            Mode(sp, il, el)
            for sp in self.species
            for el in exts
            for il in ints
        )
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "_index", {m: k for k, m in enumerate(modes)})

    def __len__(self) -> int:
        return len(self.modes)

    def mode(self, internal: str, external: str, species: int | None = None) -> Mode:
        """Look up the Mode for a (internal, external) name pair."""
        sp = self.species[0] if species is None else species
        try:
            il = Label(internal, self.internals.index(internal))
            el = Label(external, self.externals.index(external))
        except ValueError as exc:
            raise UnknownMode(f"undeclared label in ({internal!r}, {external!r})") from exc
        m = Mode(sp, il, el)
        if m not in self._index:
            raise UnknownMode(f"mode {m} not in basis")
        return m

    def index_of(self, mode: Mode) -> int:
        try:
            return self._index[mode]
        except KeyError:
            raise UnknownMode(f"mode {mode} not in basis") from None


@dataclass(frozen=True)
class Monomial:
    """A canonical product of creation operators applied to the vacuum.

    ``entries`` holds (mode, occupation) pairs with modes strictly
    increasing; occupations exceed one only for bosons.  The empty tuple is
    the vacuum.
    """

    entries: tuple[tuple[Mode, int], ...]

    @property
    def particle_count(self) -> int:
        return sum(occ for _, occ in self.entries)

    def norm_factor(self) -> int:
        """prod n_k! over the occupations; 1 for singly occupied monomials."""
        out = 1
        for _, occ in self.entries:
            out *= math.factorial(occ)
        return out

    def ops(self) -> list[Mode]:
        """Expand back into the flat operator list, canonical order."""
        return [m for m, occ in self.entries for _ in range(occ)]

    def is_canonical(self) -> bool:
        keys = [m.order_key() for m, _ in self.entries]
        return all(a < b for a, b in zip(keys, keys[1:])) and all(
            occ >= 1 for _, occ in self.entries
        )


VACUUM = Monomial(())


def canonicalize(ops, statistics: Statistics):
    """Bring a creation-operator product into canonical order.

    Returns ``(coefficient, monomial)``.  For fermions the coefficient is
    the parity of the sorting permutation, and a repeated mode yields
    ``(0, None)`` (Pauli exclusion).  Bosons and distinguishable species
    reorder freely with coefficient +1, merging repeats into occupation
    numbers.
    """
    ops = list(ops)
    if not ops:
        raise ValueError("canonicalize needs at least one operator")
    if statistics is Statistics.FERMION:
        sign = 1
        # insertion sort; each adjacent swap is one anticommutation
        for i in range(1, len(ops)):
            j = i
            while j > 0 and ops[j].order_key() < ops[j - 1].order_key():
                ops[j - 1], ops[j] = ops[j], ops[j - 1]
                sign = -sign
                j -= 1
        for a, b in zip(ops, ops[1:]):
            if a == b:
                return 0, None
        return sign, Monomial(tuple((m, 1) for m in ops))
    ops.sort(key=Mode.order_key)
    return 1, _grouped(ops)


def _grouped(ops) -> Monomial:
    """The monomial of a canonically sorted operator list; repeats become occupations."""
    entries: list[tuple[Mode, int]] = []
    for m in ops:
        if entries and entries[-1][0] == m:
            entries[-1] = (m, entries[-1][1] + 1)
        else:
            entries.append((m, 1))
    return Monomial(tuple(entries))


@dataclass
class StateVector:
    """Sparse map from canonical monomials to complex amplitudes.

    Treated as immutable after construction; every operation returns a new
    state.  Amplitudes with magnitude below ``prune_tolerance`` are dropped
    on construction.
    """

    statistics: Statistics
    terms: dict
    prune_tolerance: float = DEFAULT_PRUNE_TOLERANCE

    def __post_init__(self) -> None:
        self.terms = {
            m: complex(a) for m, a in self.terms.items() if abs(a) >= self.prune_tolerance
        }


def vacuum(statistics: Statistics, prune_tolerance: float = DEFAULT_PRUNE_TOLERANCE) -> StateVector:
    return StateVector(statistics, {VACUUM: 1.0 + 0.0j}, prune_tolerance)


def _insert_left(monomial: Monomial, mode: Mode, statistics: Statistics):
    """Left-multiply a canonical monomial by one creation operator."""
    key = mode.order_key()
    crossed = 0
    entries = list(monomial.entries)
    for pos, (m, occ) in enumerate(entries):
        mk = m.order_key()
        if mk < key:
            crossed += occ
            continue
        if mk == key:
            if statistics is Statistics.FERMION:
                return 0, None
            entries[pos] = (m, occ + 1)
            return 1, Monomial(tuple(entries))
        entries.insert(pos, (mode, 1))
        break
    else:
        entries.append((mode, 1))
    sign = -1 if (statistics is Statistics.FERMION and crossed % 2) else 1
    return sign, Monomial(tuple(entries))


def apply_creation(state: StateVector, mode: Mode) -> StateVector:
    """Multiply every term of the state by a creation operator on the left."""
    out: dict = {}
    for mono, amp in state.terms.items():
        sign, new = _insert_left(mono, mode, state.statistics)
        if new is None:
            continue
        out[new] = out.get(new, 0.0) + sign * amp
    return StateVector(state.statistics, out, state.prune_tolerance)


def substitute(state: StateVector, transform) -> StateVector:
    """Rewrite every creation operator through a mode transform.

    Each a_m^dag is replaced by sum_n T[n, m] a_n^dag and like monomials
    merge.  The transform only needs ``basis`` and ``columns`` attributes
    (see ``elements.ModeTransform``).

    Each input monomial is expanded one factor at a time, right to left:
    every partial product is left-multiplied by the next factor's column
    and like partial products merge before the following factor.  Partial
    products are sorted tuples of mode ranks in canonical (``order_key``)
    order, so a left insertion at position p crosses p operators: fermions
    pick up (-1)**p and vanish on a repeated rank, other statistics just
    insert.  Work therefore grows with the number of distinct partial
    products (at most C(m + N - 1, N) for N particles in m modes, C(m, N)
    for fermions) times the column size, not with the m^N terms of the
    full distributive expansion.
    """
    fermion = state.statistics is Statistics.FERMION
    basis = transform.basis
    ranked = sorted(basis.modes, key=Mode.order_key)
    rank = {m: r for r, m in enumerate(ranked)}
    columns: dict = {}
    merged: dict = {}
    for mono, amp in state.terms.items():
        partial = {(): amp}
        for mode in reversed(mono.ops()):
            k = basis.index_of(mode)
            column = columns.get(k)
            if column is None:
                column = [(rank[m], complex(v)) for m, v in transform.columns[k]]
                columns[k] = column
            grown: dict = {}
            for ranks, weight in partial.items():
                for r, v in column:
                    pos = bisect_left(ranks, r)
                    if fermion:
                        if pos < len(ranks) and ranks[pos] == r:
                            continue
                        if pos % 2:
                            v = -v
                    key = ranks[:pos] + (r,) + ranks[pos:]
                    grown[key] = grown.get(key, 0.0) + weight * v
            partial = grown
        for ranks, weight in partial.items():
            merged[ranks] = merged.get(ranks, 0.0) + weight
    out = {_grouped([ranked[r] for r in ranks]): w for ranks, w in merged.items()}
    return StateVector(state.statistics, out, state.prune_tolerance)


def amplitude(state: StateVector, outcome: Monomial) -> complex:
    """Projection onto a normalized outcome ket.

    The stored coefficient multiplies a raw operator product, whose ket has
    norm sqrt(prod n_k!); the amplitude against the *normalized* basis bra
    is therefore coefficient * sqrt(prod n_k!).
    """
    if not outcome.is_canonical():
        raise ValueError(f"outcome monomial is not canonical: {outcome!r}")
    coeff = state.terms.get(outcome, 0.0)
    return complex(coeff) * math.sqrt(outcome.norm_factor())


def norm_squared(state: StateVector) -> float:
    return sum(abs(a) ** 2 * m.norm_factor() for m, a in state.terms.items())


def _species_blind(monomial: Monomial):
    units = []
    for m, occ in monomial.entries:
        units.extend([(m.external.index, m.internal.index)] * occ)
    units.sort()
    return tuple(units)


def outcome_probability(state: StateVector, outcome: Monomial) -> float:
    """Probability of a detector outcome pattern.

    For distinguishable statistics the species tags in ``outcome`` are
    ignored: detectors are species-blind, so the probabilities of every
    species assignment matching the (internal, external) pattern are summed.
    """
    n2 = norm_squared(state)
    if n2 <= 0.0:
        raise ZeroNorm("state has zero norm")
    if state.statistics is Statistics.DISTINGUISHABLE:
        pattern = _species_blind(outcome)
        total = 0.0
        for mono, amp in state.terms.items():
            if _species_blind(mono) == pattern:
                total += abs(amp) ** 2 * mono.norm_factor()
        return total / n2
    return abs(amplitude(state, outcome)) ** 2 / n2


def add(a: StateVector, b: StateVector) -> StateVector:
    if a.statistics is not b.statistics:
        raise ValueError("cannot add states with different statistics")
    terms = dict(a.terms)
    for m, amp in b.terms.items():
        terms[m] = terms.get(m, 0.0) + amp
    return StateVector(a.statistics, terms, min(a.prune_tolerance, b.prune_tolerance))


def scale(state: StateVector, factor: complex) -> StateVector:
    return StateVector(
        state.statistics,
        {m: factor * a for m, a in state.terms.items()},
        state.prune_tolerance,
    )


def particle_count(state: StateVector) -> int | None:
    """Common particle number of all terms, or None for the zero state."""
    counts = {m.particle_count for m in state.terms}
    if not counts:
        return None
    if len(counts) != 1:
        raise ValueError(f"state mixes particle numbers: {sorted(counts)}")
    return counts.pop()

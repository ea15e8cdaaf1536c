"""Second-quantized state algebra for few-particle interferometry.

A state is a complex combination of creation-operator monomials applied to
the vacuum.  Exchange statistics enter exclusively through the reordering
rule used to bring operator products into canonical order: fermionic
operators pick up the parity of the sorting permutation and annihilate the
term when a mode repeats, while bosonic operators and operators of distinct
distinguishable species commute freely and accumulate occupation numbers.
One routine, a left insertion into sorted basis indices, applies that rule:
``create`` builds initial states with it and ``substitute`` final ones.

Modes are discrete labels (Kronecker deltas everywhere, no continuous
spectra), ordered lexicographically by (species id, external index,
internal index).  Fermionic amplitudes are only defined relative to a fixed
ordering convention, so that order is frozen here once; detector
probabilities never depend on it.

Stored coefficients are taken relative to raw operator products, not
normalized number states, so the ket of a multiply-occupied bosonic
monomial has norm sqrt(prod n_k!).  That factor enters through the Born
weight |a|^2 prod n_k! that ``detector_distribution`` and ``norm_squared``
give each term, which is what makes outcome probabilities sum to one.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from enum import Enum
from functools import cached_property

from ._record import Record

__all__ = [
    "Statistics",
    "Label",
    "Mode",
    "ModeBasis",
    "Monomial",
    "StateVector",
    "UnknownMode",
    "ZeroNorm",
    "create",
    "substitute",
    "norm_squared",
    "detector_distribution",
    "scale",
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


class Label(Record):
    """A symbol from a declared finite ordered label set."""

    _fields = ("name", "index")


class Mode(Record):
    """One creation-operator slot: (species, internal label, external label).

    Species id 0 is reserved for indistinguishable particles; distinct
    distinguishable particles carry ids >= 1 and never interfere.  The hash
    is that of the field tuple, ``hash((species, internal, external))``,
    computed once at construction, so keying a dict by a mode costs no
    ``Label`` hashes.
    """

    _fields = ("species", "internal", "external")

    def __init__(self, species: int, internal: Label, external: Label) -> None:
        d = self.__dict__
        d["species"], d["internal"], d["external"] = species, internal, external
        d["_hash"] = hash((species, internal, external))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuild, so the hash is taken in the loading process
        return Mode, (self.species, self.internal, self.external)

    def __str__(self) -> str:
        tag = f"{self.internal.name},{self.external.name}"
        if self.species != INDISTINCT_SPECIES:
            tag = f"{self.species}:{tag}"
        return f"({tag})"


class ModeBasis(Record):
    """The declared label sets and the ordered mode list they generate.

    ``modes`` enumerates every (species, internal, external) combination in
    canonical (species, external index, internal index) order, whatever
    order ``species`` is declared in, so a basis index is a canonical rank;
    a transform's columns and their rows are indexed by it.  ``modes`` is
    one block per species, each block listing the same (internal, external)
    slots; ``slots`` maps a slot's (internal name, external name) to its
    position inside every block.  ``monomial`` memoizes the monomials it
    builds from basis indices, one per occupation pattern of the basis.
    Equality, hash and repr read only the three label sets.
    """

    _fields = ("internals", "externals", "species")

    def __init__(
        self,
        internals: tuple[str, ...],
        externals: tuple[str, ...],
        species: tuple[int, ...] = (INDISTINCT_SPECIES,),
    ) -> None:
        for kind, labels in (("internal", internals), ("external", externals)):
            if not labels:
                raise ValueError(f"{kind} label set must be nonempty")
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate {kind} label in {labels!r}")
        if len(set(species)) != len(species) or not species:
            raise ValueError(f"species ids must be nonempty and unique: {species!r}")
        ints = [Label(n, i) for i, n in enumerate(internals)]
        exts = [Label(n, i) for i, n in enumerate(externals)]
        block = [(il, el) for el in exts for il in ints]
        modes = tuple(Mode(sp, il, el) for sp in sorted(species) for il, el in block)
        d = self.__dict__
        d["internals"], d["externals"], d["species"] = internals, externals, species
        d["modes"], d["_monomials"] = modes, {}
        d["slots"] = {(il.name, el.name): k for k, (il, el) in enumerate(block)}
        d["_index"] = {m: k for k, m in enumerate(modes)}

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

    def monomial(self, ranks: tuple[int, ...]) -> "Monomial":
        """The monomial of a sorted tuple of basis indices; repeats become occupations.

        Built once per ``ranks``, in one pass that turns each run of equal
        indices into a (mode, run length) entry, and then returned as the
        same object.
        """
        mono = self._monomials.get(ranks)
        if mono is None:
            modes, entries = self.modes, []
            prev, occ = None, 0
            for r in ranks:
                if r == prev:
                    occ += 1
                else:
                    if occ:
                        entries.append((modes[prev], occ))
                    prev, occ = r, 1
            if occ:
                entries.append((modes[prev], occ))
            mono = self._monomials[ranks] = Monomial(tuple(entries))
        return mono


class Monomial(Record):
    """A canonical product of creation operators applied to the vacuum.

    ``entries`` holds (mode, occupation) pairs with modes strictly
    increasing; occupations exceed one only for bosons.  The empty tuple is
    the vacuum.  The hash is that of the field tuple, ``hash((entries,))``,
    read from each mode's cached hash; it and the norm factor prod n_k!
    (over occupations above one) are computed once at construction.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[Mode, int], ...]) -> None:
        norm = 1
        for _, occ in entries:
            if occ > 1:
                norm *= math.factorial(occ)
        d = self.__dict__
        d["entries"], d["_hash"], d["_norm_factor"] = entries, hash((entries,)), norm

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuild, so the hash is taken in the loading process
        return Monomial, (self.entries,)

    def norm_factor(self) -> int:
        """prod n_k! over the occupations; 1 for singly occupied monomials."""
        return self._norm_factor

    def ops(self) -> list[Mode]:
        """Expand back into the flat operator list, canonical order."""
        return [m for m, occ in self.entries for _ in range(occ)]

    @cached_property
    def pattern(self) -> tuple:
        """The sorted (external index, internal index) slots, one per particle."""
        return tuple(sorted((m.external.index, m.internal.index) for m in self.ops()))


class StateVector(Record):
    """Sparse map from canonical monomials to complex amplitudes.

    Every operation returns a new state.  Amplitudes with magnitude below
    ``DEFAULT_PRUNE_TOLERANCE`` are dropped on construction.  Two states
    are equal when their statistics and terms are; a state is unhashable,
    because its terms are a dict.
    """

    _fields = ("statistics", "terms")

    def __init__(self, statistics: Statistics, terms: dict) -> None:
        d = self.__dict__
        d["statistics"] = statistics
        d["terms"] = {m: complex(a) for m, a in terms.items() if abs(a) >= DEFAULT_PRUNE_TOLERANCE}


def _left_multiply(amp, columns, statistics: Statistics) -> dict:
    """``amp`` times the product of ``columns``, leftmost first, on the vacuum.

    Each column is a sequence of (basis index, value) pairs, one creation
    operator's expansion.  The columns are applied right to left: every
    partial product is left-multiplied by the next column and like partial
    products merge before the following one.  Partial products are sorted
    tuples of basis indices, which are canonical ranks in (species, external
    index, internal index) order, so a left insertion at position p crosses
    p operators: fermions pick up (-1)**p and vanish on a repeated rank,
    other statistics just insert.
    This is the one reordering rule; returns {rank tuple: weight}.
    """
    fermion = statistics is Statistics.FERMION
    partial = {(): amp}
    for column in reversed(columns):
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
    return partial


def create(basis: ModeBasis, statistics: Statistics, ranks) -> StateVector:
    """The state a_r0^dag a_r1^dag ... |0> over basis indices, leftmost first.

    Built by the same left insertion as ``substitute``, so fermions pick up
    the parity of the sorting permutation and a repeated fermionic rank
    gives the zero state.  Bosons sharing a mode keep the raw product, of
    norm^2 prod n_k!.  A rank that is not an int in ``range(len(basis))``
    raises ``UnknownMode``, so a negative one cannot wrap to the last mode.
    """
    columns = []
    for r in ranks:
        if not (isinstance(r, int) and 0 <= r < len(basis)):
            raise UnknownMode(f"rank {r!r} is not a mode index of this {len(basis)}-mode basis")
        columns.append(((r, 1.0),))
    terms = _left_multiply(1.0 + 0.0j, columns, statistics)
    return StateVector(statistics, {basis.monomial(k): w for k, w in terms.items()})


def substitute(state: StateVector, transform) -> StateVector:
    """Rewrite every creation operator through a mode transform.

    Each a_m^dag is replaced by sum_n T[n, m] a_n^dag and like monomials
    merge.  The transform only needs a ``basis`` attribute and a
    ``column(k)`` method listing column k's nonzeros as (row index, value)
    pairs; only the columns of occupied modes are read, and an
    ``elements.ModeTransform`` pushes each through its slot maps.  Output
    monomials come from ``basis.monomial``, so every run over one basis
    shares them.

    Each input monomial is expanded by ``_left_multiply``, the left
    insertion that ``create`` also builds initial states with, and the
    results merge in term order.  Work therefore grows with the number of
    distinct partial products (at most C(m + N - 1, N) for N particles in
    m modes, C(m, N) for fermions) times the column size, not with the m^N
    terms of the full distributive expansion.
    """
    basis, column_of = transform.basis, transform.column
    merged: dict = {}
    for mono, amp in state.terms.items():
        columns = [column_of(basis.index_of(mode)) for mode in mono.ops()]
        for ranks, weight in _left_multiply(amp, columns, state.statistics).items():
            merged[ranks] = merged.get(ranks, 0.0) + weight
    out = {basis.monomial(ranks): w for ranks, w in merged.items()}
    return StateVector(state.statistics, out)


def _left_sum(values) -> float:
    """Add left to right from int 0, as ``sum`` did before 3.12 began compensating floats."""
    total = 0
    for v in values:
        total += v
    return total


def norm_squared(state: StateVector) -> float:
    return _left_sum(abs(a) ** 2 * m.norm_factor() for m, a in state.terms.items())


def detector_distribution(state: StateVector) -> tuple[dict, float]:
    """(probability of every detector pattern, norm^2), in one pass.

    Detectors are species-blind: they see an (internal, external) slot,
    never which particle arrived.  A pattern is the sorted tuple of
    (external index, internal index) slots, one per particle, so its
    length is the particle count.  Each term adds its Born weight
    |a|^2 prod n_k! to its pattern, and each pattern weight is divided by
    the state's norm^2; the probabilities come in sorted pattern order.
    The norm^2 is a running total of every term's weight in term order,
    added as ``_left_sum`` adds, so it is the same float that
    ``norm_squared`` returns.  A zero state raises ``ZeroNorm``.
    """
    n2, weights = 0, {}
    for mono, amp in state.terms.items():
        born = abs(amp) ** 2 * mono.norm_factor()
        n2 += born
        pattern = mono.pattern
        weights[pattern] = weights.get(pattern, 0.0) + born
    if n2 <= 0.0:
        raise ZeroNorm("state has zero norm")
    return {p: weights[p] / n2 for p in sorted(weights)}, n2


def scale(state: StateVector, factor: complex) -> StateVector:
    return StateVector(state.statistics, {m: factor * a for m, a in state.terms.items()})


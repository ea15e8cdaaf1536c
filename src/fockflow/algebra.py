"""Second-quantized state algebra for few-particle interferometry.

A state is a complex combination of creation-operator monomials applied to
the vacuum.  Exchange statistics enter exclusively through the reordering
rule used to bring operator products into canonical order: fermionic
operators pick up the parity of the sorting permutation and annihilate the
term when a mode repeats, while bosonic operators and operators of distinct
distinguishable species commute freely and accumulate occupation numbers.
One routine applies that rule, a left insertion into a packed occupation
vector: an int holding each basis index's occupation in a fixed-width bit
field, ranks ascending from the low bits.  ``create`` builds initial states
with it and ``substitute`` final ones.

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
    position inside every block.  ``unpacked`` holds the monomials built
    from packed occupation vectors, one per occupation pattern and field
    width.  Equality, hash and repr read only the three label sets.
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

    def unpacked(self, width: int) -> "_Unpacked":
        """The basis's memo of monomials by packed occupation vector at ``width``.

        One dict per width, because one key means different monomials at
        different widths (0b10 is mode 1 at width 1 and mode 0 twice at
        width 2); every run over the basis shares it.
        """
        memo = self._monomials.get(width)
        if memo is None:
            memo = self._monomials[width] = _Unpacked(self.modes, width)
        return memo


class _Unpacked(dict):
    """Monomials keyed by packed occupation vector, at one field width.

    Bits [r * width, (r + 1) * width) of a key hold basis index r's
    occupation, so a width of N.bit_length() holds N particles.  A missing
    key is decoded once, hopping from the lowest set bit (``k & -k``) to
    the next occupied field, so a decode costs one step per occupied mode
    however many modes the basis has; lookups after that return the same
    object without a Python call.
    """

    __slots__ = ("modes", "width")

    def __init__(self, modes: tuple, width: int) -> None:
        self.modes, self.width = modes, width

    def __missing__(self, key: int) -> "Monomial":
        width, field = self.width, (1 << self.width) - 1
        entries, rest = [], key
        while rest:
            shift = (rest & -rest).bit_length() - 1
            shift -= shift % width
            occ = rest >> shift & field
            entries.append((self.modes[shift // width], occ))
            rest ^= occ << shift
        mono = self[key] = Monomial(tuple(entries))
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


def _left_multiply(amp, columns, statistics: Statistics, width: int) -> dict:
    """``amp`` times the product of ``columns``, leftmost first, on the vacuum.

    Each column is a sequence of (basis index, value) pairs, one creation
    operator's expansion.  The columns are applied right to left: every
    partial product is left-multiplied by the next column and like partial
    products merge before the following one.  A partial product is a packed
    occupation vector (see ``_Unpacked``) whose fields of ``width``
    bits must hold the largest particle count of the whole state, so that
    equal keys mean equal monomials across its terms.  Basis indices are
    canonical ranks in (species, external index, internal index) order, so
    inserting a_r^dag adds 1 << r * width and crosses every operator below
    rank r.  A fermionic field holds 0 or 1, one set bit per operator:
    a set bit at r vanishes the term, and the set bits below it give the
    sign.  Other statistics just insert.
    This is the one reordering rule; returns {packed key: weight}.
    """
    fermion = statistics is Statistics.FERMION
    partial = {0: amp}
    for column in reversed(columns):
        grown: dict = {}
        get = grown.get
        if fermion:
            units = [(1 << r * width, (1 << r * width) - 1, (v, -v)) for r, v in column]
            for key, weight in partial.items():
                for unit, below, signed in units:
                    if not key & unit:
                        k = key | unit
                        grown[k] = get(k, 0.0) + weight * signed[(key & below).bit_count() & 1]
        else:
            units = [(1 << r * width, v) for r, v in column]
            for key, weight in partial.items():
                for unit, v in units:
                    k = key + unit
                    grown[k] = get(k, 0.0) + weight * v
        partial = grown
    return partial


def create(basis: ModeBasis, statistics: Statistics, ranks) -> StateVector:
    """The state a_r0^dag a_r1^dag ... |0> over basis indices, leftmost first.

    Built by the same left insertion as ``substitute``, so fermions pick up
    the parity of the sorting permutation and a repeated fermionic rank
    gives the zero state.  Bosons sharing a mode keep the raw product, of
    norm^2 prod n_k!.  The packed keys are as wide as the rank count needs
    and become monomials through ``basis.unpacked``.  A rank that is not an
    int in ``range(len(basis))`` raises ``UnknownMode``, so a negative one
    cannot wrap to the last mode.
    """
    columns = []
    for r in ranks:
        if not (isinstance(r, int) and 0 <= r < len(basis)):
            raise UnknownMode(f"rank {r!r} is not a mode index of this {len(basis)}-mode basis")
        columns.append(((r, 1.0),))
    width = len(columns).bit_length()
    terms = _left_multiply(1.0 + 0.0j, columns, statistics, width)
    monos = basis.unpacked(width)
    return StateVector(statistics, {monos[k]: w for k, w in terms.items()})


def substitute(state: StateVector, transform) -> StateVector:
    """Rewrite every creation operator through a mode transform.

    Each a_m^dag is replaced by sum_n T[n, m] a_n^dag and like monomials
    merge.  The transform only needs a ``basis`` attribute and a
    ``column(k)`` method listing column k's nonzeros as (row index, value)
    pairs; only the columns of occupied modes are read, and an
    ``elements.ModeTransform`` pushes each through its slot maps.  Output
    monomials come from ``basis.unpacked``, so every run over one basis
    shares them.

    Each input monomial is expanded by ``_left_multiply``, the left
    insertion that ``create`` also builds initial states with, and the
    results merge in term order.  Every term is packed at the width of the
    state's largest particle count.  Work therefore grows with the number
    of distinct partial products (at most C(m + N - 1, N) for N particles
    in m modes, C(m, N) for fermions) times the column size, not with the
    m^N terms of the full distributive expansion.
    """
    basis, column_of = transform.basis, transform.column
    factored = [
        (amp, [column_of(basis.index_of(mode)) for mode in mono.ops()])
        for mono, amp in state.terms.items()
    ]
    width = max((len(columns) for _, columns in factored), default=0).bit_length()
    merged: dict = {}
    for amp, columns in factored:
        for key, weight in _left_multiply(amp, columns, state.statistics, width).items():
            merged[key] = merged.get(key, 0.0) + weight
    monos = basis.unpacked(width)
    return StateVector(state.statistics, {monos[key]: w for key, w in merged.items()})


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


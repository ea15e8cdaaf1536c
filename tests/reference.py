"""Slow, direct computations kept as test oracles.

``order_key`` is the canonical (species, external index, internal index)
order of a mode, and ``is_canonical`` checks that a monomial lists its
modes strictly increasing in it with positive occupations.  ``vacuum`` is
the state |0> of a statistics and ``add`` sums two states term by term;
tests build states from them.  ``monomial`` looks up a sorted tuple of
basis indices in the basis's own memo, ``basis.unpacked``.

``canonicalize`` is the reference's own reordering rule: an insertion
sort over ``Mode`` objects by ``order_key`` that counts adjacent swaps,
where the engine adds to a packed occupation vector.
``apply_creation`` left-multiplies a state by one creation operator
through it; chains of it build the test states, and the initial states
``algebra.create`` must reproduce.

``reference_substitute`` is the full distributive expansion of
``substitute``: every input monomial is expanded over the product of its
operators' columns (m^N terms for N operators on m modes), and each product
is re-ordered with ``canonicalize``.  It shares no code with
``algebra.substitute`` beyond the state types.

``insertion_substitute`` is the order reference: ``substitute``'s loops
with each partial product kept as a sorted tuple of basis indices, the
left insertion at ``bisect`` position p crossing p operators.  It visits
partial products and column entries in the engine's order and does the
same float operations in the same order, so the engine must match its
term order and amplitudes exactly.

``DenseTransform`` reads a full-basis matrix as a transform: the
``basis``, ``column(k)`` and ``columns`` duck type that ``substitute``
documents.  An ``elements.ModeTransform`` is a sequence of slot maps
acting alike on every species, so tests that feed ``substitute`` a
species-mixing map use this instead.

``dense(t)`` is a transform's slot matrix, column k read from
``t.column(k)``, and ``dense_product`` multiplies the stages' slot
matrices with numpy, later stages on the left: the product that
``elements.compose`` leaves to the column push.  ``from_matrix`` goes the
other way, one slot map holding every column of a slot matrix, for tests
that feed ``substitute`` a given unitary.

``reference_coincidence_table`` tabulates term by term: a monomial of
two operators lands in cell (i, j) when exactly one of its modes' slots
lies in bin i of party A and one in bin j of party B, with Born weight
|a|^2 prod n_k! / norm^2.  ``analysis.coincidence_table`` reads the
species-blind ``detector_distribution`` instead.

``party_amplitudes`` reads the post-selected two-party state: the terms
with one particle in each party's measured slots, each written as
a_A^dag a_B^dag, so a fermion term whose canonical order puts Bob's
operator first changes sign.  It is the one place the tests read a
state's amplitudes by party.

``closed_form_table`` evaluates the analytic cos^2/sin^2 chequers of the
hyper-hybrid tables directly from the phase point, sharing no matrix or
state machinery with the simulator, so agreement between the two is a
genuine cross-check rather than a tautology.  ``factorization_residual``
measures how far a joint table is from the product of its marginals.

``reference_decode`` sums the signaling-decode probability exactly, with
rational arithmetic, over every readout string (2^n of them), where
``experiments.signaling_decode_exact`` uses the closed form.

``reference_tokenize`` matches a pattern twice per token, once for the
token and once for the run of blanks and comments after it, counts lines
inside that run, and folds every number with ``_constant``;
``cdl.tokenize`` matches each newline and each comment on its own, skips
only the other blanks, and reads a plain decimal literal with ``float``.
The two share only ``Token``, ``LexError``, ``KEYWORDS`` and the constant
folder ``_constant``.
"""

import itertools
import math
import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from fockflow.algebra import Mode, ModeBasis, Monomial, StateVector, Statistics, norm_squared
from fockflow.analysis import CoincidenceTable
from fockflow.cdl.lexer import KEYWORDS, LexError, Token, _constant
from fockflow.elements import COLUMN_DROP_TOLERANCE, ModeTransform


def order_key(mode: Mode) -> tuple[int, int, int]:
    return (mode.species, mode.external.index, mode.internal.index)


def is_canonical(mono: Monomial) -> bool:
    keys = [order_key(m) for m, _ in mono.entries]
    return all(a < b for a, b in zip(keys, keys[1:])) and all(occ >= 1 for _, occ in mono.entries)


def monomial(basis: ModeBasis, ranks: tuple[int, ...]) -> Monomial:
    """The monomial of a sorted tuple of basis indices; repeats become occupations.

    The ranks are packed at the width their own count needs and looked up
    in ``basis.unpacked(width)``, so the result is the basis's shared object.
    """
    width = len(ranks).bit_length()
    return basis.unpacked(width)[sum(1 << r * width for r in ranks)]


def vacuum(statistics: Statistics) -> StateVector:
    return StateVector(statistics, {Monomial(()): 1.0 + 0.0j})


def add(a: StateVector, b: StateVector) -> StateVector:
    if a.statistics is not b.statistics:
        raise ValueError("cannot add states with different statistics")
    terms = dict(a.terms)
    for m, amp in b.terms.items():
        terms[m] = terms.get(m, 0.0) + amp
    return StateVector(a.statistics, terms)


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
            while j > 0 and order_key(ops[j]) < order_key(ops[j - 1]):
                ops[j - 1], ops[j] = ops[j], ops[j - 1]
                sign = -sign
                j -= 1
        for a, b in zip(ops, ops[1:]):
            if a == b:
                return 0, None
        return sign, Monomial(tuple((m, 1) for m in ops))
    ops.sort(key=order_key)
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


def apply_creation(state: StateVector, mode: Mode) -> StateVector:
    """Multiply every term of the state by a creation operator on the left.

    Each product ``mode * monomial`` is brought to canonical order by
    ``canonicalize``: a fermion crossing p operators picks up (-1)**p, and
    a repeated fermionic mode drops the term.
    """
    out: dict = {}
    for mono, amp in state.terms.items():
        sign, new = canonicalize([mode, *mono.ops()], state.statistics)
        if new is None:
            continue
        out[new] = out.get(new, 0.0) + sign * amp
    return StateVector(state.statistics, out)


@dataclass(frozen=True)
class DenseTransform:
    """A square matrix over every basis index; column k lists its nonzeros."""

    basis: object
    matrix: np.ndarray

    def column(self, k: int) -> tuple:
        entries = self.matrix[:, k]
        keep = np.flatnonzero(np.abs(entries) > COLUMN_DROP_TOLERANCE)
        return tuple(zip(keep.tolist(), entries[keep].tolist()))

    @property
    def columns(self) -> tuple:
        return tuple(self.column(k) for k in range(len(self.basis)))


def dense(t) -> np.ndarray:
    """The slot matrix of a transform: column k holds ``t.column(k)``."""
    n = len(t.basis.slots)
    u = np.zeros((n, n), dtype=complex)
    for k in range(n):
        for row, v in t.column(k):
            u[row, k] = v
    return u


def dense_product(stages) -> np.ndarray:
    """The stages' slot matrices multiplied by numpy, the first stage on the right."""
    total = dense(stages[0])
    for t in stages[1:]:
        total = dense(t) @ total
    return total


def from_matrix(basis, u) -> ModeTransform:
    """The transform of one slot map that sends every slot k to column k of ``u``."""
    n = len(basis.slots)
    images = {k: tuple((r, complex(u[r, k])) for r in range(n) if u[r, k] != 0) for k in range(n)}
    return ModeTransform(basis, (images,))


def reference_substitute(state, transform):
    basis = transform.basis
    columns = transform.columns
    out = {}
    for mono, amp in state.terms.items():
        if not mono.entries:
            out[Monomial(())] = out.get(Monomial(()), 0.0) + amp
            continue
        expansions = [[(basis.modes[k], v) for k, v in columns[basis.index_of(m)]] for m in mono.ops()]
        for combo in itertools.product(*expansions):
            weight = amp
            for _, v in combo:
                weight *= v
            sign, new = canonicalize([m for m, _ in combo], state.statistics)
            if new is None:
                continue
            out[new] = out.get(new, 0.0) + sign * weight
    return StateVector(state.statistics, out)


def insertion_expand(amp, columns, statistics: Statistics) -> dict:
    """``amp`` times the product of ``columns`` on the vacuum, as {sorted rank tuple: weight}."""
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


def insertion_substitute(state, transform):
    basis, column_of = transform.basis, transform.column
    merged: dict = {}
    for mono, amp in state.terms.items():
        columns = [column_of(basis.index_of(mode)) for mode in mono.ops()]
        for ranks, weight in insertion_expand(amp, columns, state.statistics).items():
            merged[ranks] = merged.get(ranks, 0.0) + weight
    out = {_grouped([basis.modes[k] for k in ranks]): w for ranks, w in merged.items()}
    return StateVector(state.statistics, out)


def party_amplitudes(state, part_a, part_b) -> dict:
    """{(Alice's species, Bob's species): {(Alice's slot, Bob's slot): amplitude}}.

    A slot is an (external index, internal index) pair, as in a
    ``MeasurementPartition``; terms without exactly one particle on each
    side are left out.
    """
    out: dict = {}
    for mono, amp in state.terms.items():
        ops = mono.ops()
        if len(ops) != 2:
            continue
        slots = [(m.external.index, m.internal.index) for m in ops]
        if slots[0] in part_b.slots and slots[1] in part_a.slots:
            ops, slots = ops[::-1], slots[::-1]
            if state.statistics is Statistics.FERMION:
                amp = -amp
        if slots[0] in part_a.slots and slots[1] in part_b.slots:
            out.setdefault((ops[0].species, ops[1].species), {})[tuple(slots)] = amp
    return out


def reference_coincidence_table(state, part_a, part_b):
    def bin_of(part, mode):
        slot = (mode.external.index, mode.internal.index)
        for i, (_, slots) in enumerate(part.bins):
            if slot in slots:
                return i
        return None

    n2 = norm_squared(state)
    probs = np.zeros((len(part_a.bins), len(part_b.bins)))
    for mono, amp in state.terms.items():
        units = mono.ops()
        a_idx = [i for i in (bin_of(part_a, m) for m in units) if i is not None]
        b_idx = [j for j in (bin_of(part_b, m) for m in units) if j is not None]
        if len(a_idx) == 1 and len(b_idx) == 1 and len(units) == 2:
            probs[a_idx[0], b_idx[0]] += abs(amp) ** 2 * mono.norm_factor() / n2
    return CoincidenceTable(part_a.labels(), part_b.labels(), probs)


_PATH_ROWS = ("D", "L")
_PATH_COLS = ("R", "U")
_SPIN = ("down", "up")


def closed_form_table(kind: str, statistics: Statistics, phases, row_labels=None, col_labels=None):
    """Analytic coincidence table, the simulator's independent cross-check.

    ``phases`` is a phase point, the binding ``cdl.execute`` takes: a
    missing name is 0.0.  The analyzer angle is theta = (phiD - phiL)/2 -
    (phiR - phiU)/2 for fermions, shifted by +pi/2 for bosons (the
    exchange-phase difference between the two statistics).  Tables are the
    1/4 cos^2 / sin^2 chequers over that single angle.
    """
    phi_l, phi_d, phi_r, phi_u = (phases.get(k, 0.0) for k in ("phiL", "phiD", "phiR", "phiU"))
    if statistics is Statistics.FERMION:
        half_b = (phi_r - phi_u) / 2.0
    elif statistics is Statistics.BOSON:
        half_b = (phi_r - phi_u) / 2.0 - math.pi / 2.0
    else:
        raise ValueError("closed form exists only for boson or fermion statistics")
    theta = (phi_d - phi_l) / 2.0 - half_b
    c = 0.25 * math.cos(theta) ** 2
    s = 0.25 * math.sin(theta) ** 2
    chequer = {
        "path-path": ([[c, s], [s, c]], _PATH_ROWS, _PATH_COLS),
        "spin-spin": ([[s, c], [c, s]], _SPIN, _SPIN),
        "spin-path": ([[s, c], [c, s]], _SPIN, _PATH_COLS),
        "path-spin": ([[c, s], [s, c]], _PATH_ROWS, _SPIN),
    }
    if kind not in chequer:
        raise ValueError(f"unknown table kind {kind!r}")
    cells, rows, cols = chequer[kind]
    return CoincidenceTable(tuple(row_labels or rows), tuple(col_labels or cols), cells)


def factorization_residual(table) -> float:
    """Distance of a joint table from the product of its own marginals.

    Zero means the two tabulated variables are statistically independent;
    for the swap circuit this is the witness that one party's internal and
    external readouts carry no mutual correlation.
    """
    m = np.asarray(getattr(table, "probs", table), dtype=float)
    total = m.sum()
    if total <= 0:
        raise ValueError("table has no mass")
    predicted = np.outer(m.sum(axis=1), m.sum(axis=0)) / total
    return float(np.max(np.abs(m - predicted)))


def reference_decode(dofs=None, copies=None) -> float:
    if dofs is not None:
        # Z branch always agrees and decodes correctly; X branch decodes
        # correctly unless its uniform readout happens to agree
        agree = Fraction(0)
        for v in range(2**dofs):
            if v == 0 or v == 2**dofs - 1:
                agree += Fraction(1, 2**dofs)
        return float(Fraction(1, 2) + Fraction(1, 2) * (1 - agree))
    per_copy_agree = Fraction(0)
    for v in range(4):
        if v in (0, 3):
            per_copy_agree += Fraction(1, 4)
    all_agree = Fraction(1)
    for _ in range(copies):
        all_agree *= per_copy_agree
    return float(1 - all_agree)


_REFERENCE_TOKEN = re.compile(
    r"(?P<blank>(?:\s|#[^\n]*)+)"
    r"|(?P<param>\$(?:[A-Za-z_][A-Za-z0-9_]*)?)"
    r"|(?P<punctuation>->|[=:])"
    r"|(?P<number>[\d.-]|pi(?![A-Za-z0-9_]))"
    r"|(?P<word>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<other>.)"
)


def reference_tokenize(source: str) -> list[Token]:
    out = []
    pos, line, line_start = 0, 1, 0
    while pos < len(source):
        m = _REFERENCE_TOKEN.match(source, pos)
        kind, text, col = m.lastgroup, m.group(), pos - line_start + 1
        if kind == "blank":
            if "\n" in text:
                line += text.count("\n")
                line_start = pos + text.rindex("\n") + 1
        elif kind == "param":
            if text == "$":
                raise LexError("'$' must introduce a parameter name", line, col)
            out.append(Token("identifier", text, line, col))
        elif kind == "punctuation":
            out.append(Token(kind, text, line, col))
        elif kind == "number":
            value, end = _constant(source, pos, line, col)
            out.append(Token(kind, source[pos:end], line, col, value=value))
            pos = end
            continue
        elif kind == "word":
            out.append(Token("keyword" if text in KEYWORDS else "identifier", text, line, col))
        elif text.isdigit():  # a digit that is not decimal, such as "²"
            raise LexError("expected a number", line, col)
        else:
            raise LexError(f"illegal character {text!r}", line, col)
        pos = m.end()
    out.append(Token("end", "", line, pos - line_start + 1))
    return out

"""Observables extracted from final states.

Coincidence tables post-select events with exactly one particle on each
party's side; the normalized correlation divides by the four-cell mass, not
by 1, so same-side and double-occupancy events drop out the way
post-selected detection does.

``closed_form_table`` is a deliberately separate code path from the
simulator: it evaluates the analytic cos^2/sin^2 patterns directly from the
phase settings, sharing no matrix or state machinery, so agreement between
the two is a genuine cross-check rather than a tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import ModeBasis, StateVector, Statistics, detector_distribution

__all__ = [
    "MeasurementPartition",
    "CoincidenceTable",
    "ChshSettings",
    "DetectorDistribution",
    "OverlappingPartitions",
    "ZeroCoincidenceMass",
    "DEFAULT_SIGNS",
    "coincidence_table",
    "correlation",
    "chsh_value",
    "chsh_grid_search",
    "closed_form_table",
    "factorization_residual",
    "completeness",
]

# dichotomic outcome convention: one detector set per party counts as +1,
# the other as -1; recorded in CLI metadata
DEFAULT_SIGNS = {
    "L": +1, "U": +1, "up": +1, "V": +1,
    "D": -1, "R": -1, "down": -1, "H": -1,
}


class OverlappingPartitions(ValueError):
    """Measurement bins overlap within or across the two parties."""


class ZeroCoincidenceMass(ValueError):
    """Correlation requested from a table whose four cells are all zero."""


@dataclass(frozen=True)
class MeasurementPartition:
    """One party's detector binning: ordered (label, slot set) pairs.

    A detector sees a slot, never a species: a slot is the (external index,
    internal index) pair that ``detector_distribution``'s patterns list, and
    a bin is a set of slots.  ``slots`` maps each slot to its bin's index.
    """

    party: str
    kind: str
    bins: tuple
    slots: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        slots: dict = {}
        for i, (label, bin_slots) in enumerate(self.bins):
            for slot in bin_slots:
                if not (type(slot) is tuple and len(slot) == 2 and all(type(k) is int for k in slot)):
                    raise ValueError(f"bin {label!r}: {slot!r} is not an (int, int) slot")
                if slot in slots:
                    raise OverlappingPartitions(f"bin {label!r} overlaps an earlier bin")
                slots[slot] = i
        object.__setattr__(self, "slots", slots)

    def labels(self) -> tuple:
        return tuple(label for label, _ in self.bins)


@dataclass(frozen=True)
class CoincidenceTable:
    row_labels: tuple
    col_labels: tuple
    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError(f"table shape {p.shape} does not match labels")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    def total(self) -> float:
        return float(self.probs.sum())

    def cell(self, row, col) -> float:
        return float(self.probs[self.row_labels.index(row), self.col_labels.index(col)])


@dataclass(frozen=True)
class ChshSettings:
    """Two dial values per party."""

    phi_a0: float
    phi_a1: float
    phi_b0: float
    phi_b1: float


@dataclass(frozen=True)
class DetectorDistribution:
    probs: dict

    def __post_init__(self) -> None:
        for d, p in self.probs.items():
            if p < -1e-15:
                raise ValueError(f"negative probability {p} for detector {d}")
        total = sum(self.probs.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"detector probabilities sum to {total}, not 1")

    def mass(self, detectors) -> float:
        return sum(self.probs.get(d, 0.0) for d in detectors)


def coincidence_table(
    state: StateVector, part_a: MeasurementPartition, part_b: MeasurementPartition
):
    """2x2 (or NxM) table of one-particle-per-party detection probabilities.

    Read from ``detector_distribution``: entry (i, j) is the probability of
    the two-particle patterns with one slot in bin i of party A and the
    other in bin j of party B.  Every other pattern (same-side pairs, double
    occupancy, other particle counts) is left to the completeness check.
    """
    slots_a, slots_b = part_a.slots, part_b.slots
    if slots_a.keys() & slots_b.keys():
        raise OverlappingPartitions("party partitions share detector slots")
    probs = np.zeros((len(part_a.bins), len(part_b.bins)))
    for pattern, p in detector_distribution(state).items():
        if len(pattern) != 2:
            continue
        first, second = pattern
        if first in slots_b:
            first, second = second, first
        if first in slots_a and second in slots_b:
            probs[slots_a[first], slots_b[second]] += p
    return CoincidenceTable(part_a.labels(), part_b.labels(), probs)


def correlation(table: CoincidenceTable) -> float:
    """Normalized expectation of the product of the two dichotomic outcomes.

    A bin counts as +1 or -1 by its label in ``DEFAULT_SIGNS``.
    """
    missing = [x for x in (*table.row_labels, *table.col_labels) if x not in DEFAULT_SIGNS]
    if missing:
        raise ValueError(f"sign map lacks labels: {missing}")
    total = table.total()
    if total < 1e-15:
        raise ZeroCoincidenceMass("all four coincidence cells are zero")
    num = 0.0
    for i, r in enumerate(table.row_labels):
        for j, c in enumerate(table.col_labels):
            num += DEFAULT_SIGNS[r] * DEFAULT_SIGNS[c] * table.probs[i, j]
    return num / total


def chsh_value(runner, s: ChshSettings) -> float:
    """|E(a0,b0) + E(a1,b0) + E(a0,b1) - E(a1,b1)| for a dial-pair runner."""
    e = {
        (a, b): correlation(runner(a, b))
        for a in (s.phi_a0, s.phi_a1)
        for b in (s.phi_b0, s.phi_b1)
    }
    return abs(
        e[(s.phi_a0, s.phi_b0)]
        + e[(s.phi_a1, s.phi_b0)]
        + e[(s.phi_a0, s.phi_b1)]
        - e[(s.phi_a1, s.phi_b1)]
    )


def chsh_grid_search(runner, dial_grid):
    """Maximize the CHSH combination over all dial quadruples from one grid.

    Evaluates the correlation once per grid pair, then scans the quadruples
    by broadcasting, so an n-point grid costs n^2 circuit runs, not n^4.
    """
    dials = list(dial_grid)
    n = len(dials)
    if n == 0:
        raise ValueError("dial grid must be nonempty")
    g = np.empty((n, n))
    for i, a in enumerate(dials):
        for j, b in enumerate(dials):
            g[i, j] = correlation(runner(a, b))
    combo = (
        g[:, None, :, None] + g[None, :, :, None] + g[:, None, None, :] - g[None, :, None, :]
    )
    flat = np.abs(combo).argmax()
    i0, i1, j0, j1 = np.unravel_index(flat, combo.shape)
    best = ChshSettings(dials[i0], dials[i1], dials[j0], dials[j1])
    return float(np.abs(combo[i0, i1, j0, j1])), best


_PATH_ROWS = ("D", "L")
_PATH_COLS = ("R", "U")
_SPIN = ("down", "up")


def closed_form_table(kind: str, statistics: Statistics, settings, row_labels=None, col_labels=None):
    """Analytic coincidence table, the simulator's independent cross-check.

    The analyzer angle is theta = (phi_D - phi_L)/2 - (phi_R - phi_U)/2 for
    fermions, shifted by +pi/2 for bosons (the exchange-phase difference
    between the two statistics).  Tables are the 1/4 cos^2 / sin^2 chequers
    over that single angle.
    """
    if statistics is Statistics.FERMION:
        half_b = (settings.phi_r - settings.phi_u) / 2.0
    elif statistics is Statistics.BOSON:
        half_b = (settings.phi_r - settings.phi_u) / 2.0 - math.pi / 2.0
    else:
        raise ValueError("closed form exists only for boson or fermion statistics")
    theta = (settings.phi_d - settings.phi_l) / 2.0 - half_b
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
    return CoincidenceTable(
        tuple(row_labels or rows), tuple(col_labels or cols), np.array(cells)
    )


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


def completeness(state: StateVector, basis: ModeBasis) -> float:
    """Total probability of every detector outcome over the basis.

    The sum, in sorted pattern order, of ``detector_distribution(state,
    basis)``: any particle count, species-blind, terms touching a mode
    outside ``basis`` left out.
    """
    return sum(detector_distribution(state, basis).values())

"""Observables read from detector distributions.

Coincidence tables post-select events with exactly one particle on each
party's side; the normalized correlation divides by the four-cell mass, not
by 1, so same-side and double-occupancy events drop out the way
post-selected detection does.

Tables are tuples of row tuples of Python floats.  numpy loads only when
``chsh_grid_search`` runs.
"""

from __future__ import annotations

from ._record import Record
from .algebra import _left_sum

__all__ = [
    "MeasurementPartition",
    "CoincidenceTable",
    "OverlappingPartitions",
    "ZeroCoincidenceMass",
    "DEFAULT_SIGNS",
    "coincidence_table",
    "correlation",
    "chsh_value",
    "chsh_grid_search",
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


class MeasurementPartition(Record):
    """One party's detector binning: ordered (label, slot set) pairs.

    A detector sees a slot, never a species: a slot is the (external index,
    internal index) pair that ``detector_distribution``'s patterns list, and
    a bin is a set of slots.  ``slots`` maps each slot to its bin's index;
    equality, hash and repr read only party, kind and bins.
    """

    _fields = ("party", "kind", "bins")

    def __init__(self, party: str, kind: str, bins: tuple) -> None:
        slots: dict = {}
        for i, (label, bin_slots) in enumerate(bins):
            for slot in bin_slots:
                if not (type(slot) is tuple and len(slot) == 2 and all(type(k) is int for k in slot)):
                    raise ValueError(f"bin {label!r}: {slot!r} is not an (int, int) slot")
                if slot in slots:
                    raise OverlappingPartitions(f"bin {label!r} overlaps an earlier bin")
                slots[slot] = i
        d = self.__dict__
        d["party"], d["kind"], d["bins"], d["slots"] = party, kind, bins, slots

    def labels(self) -> tuple:
        return tuple(label for label, _ in self.bins)


class CoincidenceTable(Record):
    """Cell (i, j) is ``probs[i][j]``: a tuple of row tuples of floats.

    ``probs`` may be given as any 2-D nested sequence, an ndarray too.
    """

    _fields = ("row_labels", "col_labels", "probs")

    def __init__(self, row_labels: tuple, col_labels: tuple, probs) -> None:
        shape = (len(row_labels), len(col_labels))
        try:
            rows = tuple(tuple(map(float, row)) for row in probs)
        except TypeError:  # not 2-D: a row is a number
            rows = None
        if rows is None or len(rows) != shape[0] or any(len(row) != shape[1] for row in rows):
            raise ValueError(f"table cells do not match the labels' shape {shape}")
        d = self.__dict__
        d["row_labels"], d["col_labels"], d["probs"] = row_labels, col_labels, rows

    def total(self) -> float:
        """The cells' sum in numpy's order, so it is ``np.sum(probs)`` to the bit.

        numpy's reduction starts from +0.0 and adds the C-order cells pairwise.
        """
        return 0.0 + _pairwise_sum([p for row in self.probs for p in row])


def _pairwise_sum(xs: list) -> float:
    """numpy's pairwise float64 sum of ``xs``.

    One accumulator below 8 values, eight interleaved lanes up to 128, and
    above that two halves, cut at a multiple of 8, each summed the same way.
    """
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n <= 128:
        whole = n - n % 8
        lanes = xs[:8]
        for i in range(8, whole, 8):
            lanes = [a + b for a, b in zip(lanes, xs[i : i + 8])]
        total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + (
            (lanes[4] + lanes[5]) + (lanes[6] + lanes[7])
        )
        for x in xs[whole:]:
            total += x
        return total
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])


def coincidence_table(probs: dict, part_a: MeasurementPartition, part_b: MeasurementPartition):
    """2x2 (or NxM) table of one-particle-per-party detection probabilities.

    ``probs`` is a detector distribution, the first value that
    ``algebra.detector_distribution`` returns: entry (i, j) is the
    probability of the two-particle patterns with one slot in bin i of
    party A and the other in bin j of party B.  Every other pattern
    (same-side pairs, double occupancy, other particle counts) is left to
    the completeness check.
    """
    slots_a, slots_b = part_a.slots, part_b.slots
    if slots_a.keys() & slots_b.keys():
        raise OverlappingPartitions("party partitions share detector slots")
    cells = [[0.0] * len(part_b.bins) for _ in part_a.bins]
    for pattern, p in probs.items():
        if len(pattern) != 2:
            continue
        first, second = pattern
        if first in slots_b:
            first, second = second, first
        if first in slots_a and second in slots_b:
            cells[slots_a[first]][slots_b[second]] += p
    return CoincidenceTable(part_a.labels(), part_b.labels(), cells)


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
    for r, row in zip(table.row_labels, table.probs):
        for c, p in zip(table.col_labels, row):
            num += DEFAULT_SIGNS[r] * DEFAULT_SIGNS[c] * p
    return num / total


def chsh_value(runner, dials) -> float:
    """|E(a0,b0) + E(a1,b0) + E(a0,b1) - E(a1,b1)| for a dial-pair runner.

    ``dials`` is the quadruple (a0, a1, b0, b1).
    """
    a0, a1, b0, b1 = dials
    e = {(a, b): correlation(runner(a, b)) for a in (a0, a1) for b in (b0, b1)}
    return abs(e[(a0, b0)] + e[(a1, b0)] + e[(a0, b1)] - e[(a1, b1)])


def chsh_grid_search(runner, dial_grid):
    """Maximize the CHSH combination over all dial quadruples from one grid.

    Returns (value, (a0, a1, b0, b1)).  Evaluates the correlation once per
    grid pair, then scans the quadruples by broadcasting, so an n-point grid
    costs n^2 circuit runs, not n^4.  numpy is imported here because the
    broadcast scans the 16^4 quadruples of a pi/8 grid about ten times
    faster than a Python loop (0.7 ms against 8 ms).
    """
    import numpy as np

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
    return float(np.abs(combo[i0, i1, j0, j1])), (dials[i0], dials[i1], dials[j0], dials[j1])


def completeness(probs: dict) -> float:
    """Total probability of every detector outcome in a detector distribution.

    The sum, left to right in sorted pattern order, of ``probs`` (the
    first value that ``algebra.detector_distribution`` returns): any
    particle count, species-blind.
    """
    return _left_sum(probs.values())

"""Output checks that do not use fockflow's own code.

Every check returns None when the output is right and a one-line reason
when it is not.  The references are closed forms written out here:
cos^2/sin^2 chequers for the two-particle interferometers, permanents
(bosons) and determinants (fermions) of submatrices of the circuit
unitary for N particles (Aaronson-Arkhipov, arXiv:1011.3245), and
1 - 2^-n for the signaling decoder.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

TOL_TABLE = 1e-9
TOL_EXACT = 1e-12
ROOT_EIGHT = 2.0 * math.sqrt(2.0)


def _chequer(theta: float, diagonal_cos: bool):
    c = 0.25 * math.cos(theta) ** 2
    s = 0.25 * math.sin(theta) ** 2
    return [[c, s], [s, c]] if diagonal_cos else [[s, c], [c, s]]


def hh_cells(stats: str, kind: str, pl: float, pd: float, pr: float, pu: float):
    """Coincidence cells of the hyper-hybrid interferometer."""
    if stats == "distinguishable":
        return [[0.125, 0.125], [0.125, 0.125]]
    theta = (pd - pl) / 2.0 - (pr - pu) / 2.0
    if stats == "boson":
        theta += math.pi / 2.0
    return _chequer(theta, kind in ("path-path", "path-spin"))


def swap_cells(pl: float, pd: float, pr: float, pu: float):
    """The swap circuit's quarter-angle law (spin for Alice, path for Bob)."""
    return _chequer((pd - pl - pr + pu) / 2.0, True)


def check_cells(got, want):
    worst = max(abs(g - w) for g, w in zip(got, (x for row in want for x in row)))
    if not worst < TOL_TABLE:
        return f"table cells off the closed form by {worst:.3g}"
    return None


def correlation_of(cells) -> float:
    """E of a 2x2 table; the first label of every pair (D/L, R/U, down/up) reads -1."""
    p00, p01, p10, p11 = cells
    return (p00 - p01 - p10 + p11) / sum(cells)


def check_sweep_csv(text: str, circuit: str, stats: str, kind: str, steps: int):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != "phiL,phiD,phiR,phiU,kind,p00,p01,p10,p11,E".split(","):
        return "sweep CSV header missing"
    if len(rows) - 1 != steps**4:
        return f"sweep wrote {len(rows) - 1} rows, want {steps**4}"
    grid = [k * 2 * math.pi / steps for k in range(steps)]
    for row, phases in zip(rows[1:], itertools.product(grid, repeat=4)):
        got_phases = [float(x) for x in row[:4]]
        if max(abs(a - b) for a, b in zip(got_phases, phases)) > TOL_EXACT:
            return f"sweep row out of grid order at {row[:4]}"
        if row[4] != kind:
            return f"sweep row kind {row[4]!r}, want {kind!r}"
        cells = [float(x) for x in row[5:9]]
        if circuit == "swap":
            want = swap_cells(*phases)
        else:
            want = hh_cells(stats, kind, *phases)
        bad = check_cells(cells, want)
        if bad:
            return f"{bad} at phases {row[:4]}"
        if abs(float(row[9]) - correlation_of(cells)) > TOL_TABLE:
            return f"sweep E column disagrees with its cells at {row[:4]}"
    return None


def _chsh_of(values) -> float:
    return abs(values["E00"] + values["E10"] + values["E01"] - values["E11"])


def check_chsh_search(record: dict):
    if abs(record["chsh"] - ROOT_EIGHT) > TOL_TABLE:
        return f"CHSH search found {record['chsh']!r}, want 2*sqrt(2)"
    if abs(_chsh_of(record["values"]) - record["chsh"]) > TOL_TABLE:
        return "CHSH value does not replay from its own E values"
    return None


def check_chsh_dials(record: dict, dials):
    """Fermion path-path: E(a, b) = cos(a/2 - b) at phases (0, a/2, b, 0)."""
    a0, a1, b0, b1 = dials
    want = {
        "E00": math.cos(a0 / 2 - b0),
        "E01": math.cos(a0 / 2 - b1),
        "E10": math.cos(a1 / 2 - b0),
        "E11": math.cos(a1 / 2 - b1),
    }
    values = record["values"]
    for key, w in want.items():
        if abs(values[key] - w) > TOL_TABLE:
            return f"{key} = {values[key]!r}, want {w!r}"
    if abs(record["chsh"] - _chsh_of(want)) > TOL_TABLE:
        return f"CHSH {record['chsh']!r}, want {_chsh_of(want)!r}"
    return None


def check_table_record(record: dict, want_cells):
    bad = check_cells(record["table"]["cells"], want_cells)
    if bad:
        return bad
    comp = record["metadata"]["completeness"]
    if comp is None or abs(comp - 1.0) > TOL_TABLE:
        return f"completeness {comp!r}, want 1"
    return None


def statement_counts(source: str):
    """(particles, elements, measurements) counted from the file's text."""
    words = (line.split("#", 1)[0].split() for line in source.splitlines())
    heads = [w[0] for w in words if w]
    return (
        heads.count("particle"),
        sum(heads.count(k) for k in ("bs", "hbs", "phase", "sorter", "exchange")),
        heads.count("measure"),
    )


def check_check_record(record: dict, source: str):
    values = record["values"]
    got = (values["particles"], values["elements"], values["measurements"])
    want = statement_counts(source)
    if got != want:
        return f"check counted {got}, the file has {want}"
    return None


def check_signal_record(record: dict, count: int, trials: int | None):
    values = record["values"]
    exact = 1.0 - 2.0**-count
    if abs(values["exact"] - exact) > TOL_EXACT:
        return f"exact decode {values['exact']!r}, want {exact!r}"
    if trials:
        est, err = values["estimate"], values["stderr"]
        if values["trials"] != trials or abs(est - exact) > max(5.0 * err, TOL_EXACT):
            return f"Monte Carlo {est!r} +- {err!r} misses {exact!r}"
    return None


CLONE_BORN = {"z0": (1.0, 0.0), "z1": (0.0, 1.0), "x+": (0.5, 0.5), "x-": (0.5, 0.5)}


def check_cascade_record(record: dict, dofs: int, state: str):
    p0, p1 = CLONE_BORN[state]
    want = {}
    for bits in itertools.product((0, 1), repeat=dofs):
        p = math.prod(p1 if b else p0 for b in bits)
        if p > 0.0:
            want[1 + int("".join(map(str, bits)), 2)] = p
    got = {int(k): v for k, v in record["values"]["distribution"].items()}
    if set(got) != set(want) or any(abs(got[k] - want[k]) > TOL_EXACT for k in want):
        return f"cascade distribution {got} differs from {want}"
    return None


# --- N particles: permanents and determinants of the mesh unitary ---


def mesh_unitary(n_ports: int, layers):
    """Unitary of a mesh; each layer is (splitter pairs, per-port phases).

    A balanced splitter on ports (a, b) sends a_a^dag to
    (a_a^dag + i a_b^dag)/sqrt(2) and a_b^dag to (a_b^dag + i a_a^dag)/sqrt(2);
    U[n, m] is the coefficient of output mode n for input mode m.
    """
    u = np.eye(n_ports, dtype=complex)
    t, r = 1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)
    for pairs, phases in layers:
        b = np.zeros((n_ports, n_ports), dtype=complex)
        for a, c in pairs:
            b[a, a] = b[c, c] = t
            b[c, a] = b[a, c] = r
        u = np.diag(np.exp(1j * np.asarray(phases))) @ b @ u
    return u


def permanents(mats):
    """Permanents of a stack of n x n matrices by Ryser's formula."""
    n = mats.shape[-1]
    subsets = np.array(list(itertools.product((0, 1), repeat=n))[1:], dtype=float)
    signs = (-1.0) ** (n - subsets.sum(axis=1))
    row_sums = mats @ subsets.T  # (K, n, subsets)
    return (row_sums.prod(axis=1) * signs).sum(axis=1)


def check_mesh_state(state_probs: dict, unitary, inputs, stats: str):
    """Compare outcome probabilities with |perm|^2/prod n! or |det|^2.

    ``state_probs`` maps a sorted tuple of output port indices (one entry
    per particle) to the simulator's probability.
    """
    m, n = unitary.shape[0], len(inputs)
    if stats == "boson":
        patterns = list(itertools.combinations_with_replacement(range(m), n))
    else:
        patterns = list(itertools.combinations(range(m), n))
    subs = unitary[np.array(patterns)][:, :, list(inputs)]
    if stats == "boson":
        weights = np.array(
            [math.prod(math.factorial(pat.count(k)) for k in set(pat)) for pat in patterns]
        )
        want = np.abs(permanents(subs)) ** 2 / weights
    else:
        want = np.abs(np.linalg.det(subs)) ** 2
    stray = set(state_probs) - set(patterns)
    if stray:
        return f"outcomes outside the {stats} pattern space: {sorted(stray)[:3]}"
    got = np.array([state_probs.get(p, 0.0) for p in patterns])
    worst = float(np.max(np.abs(got - want)))
    if not worst < TOL_EXACT:
        return f"N={n} {stats} probabilities off the permanent/determinant by {worst:.3g}"
    norm = float(got.sum())
    if abs(norm - 1.0) > TOL_EXACT:
        return f"N={n} {stats} state norm {norm!r}"
    return None

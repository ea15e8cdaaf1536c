"""The bundled circuit files, read out the way the command line reads them.

Each file is parsed and compiled once, and every table comes from the
steps ``cli._runner`` takes: ``execute`` at a phase point (the
``{name: radians}`` binding keyed by ``experiments.PHASES``; ``stages``
lists the stages it runs there),
``detector_distribution``, and ``coincidence_table`` over the parties'
``rebin`` parts.  Tests import this module by bare name, as they import
``reference``.
"""

import functools
from pathlib import Path

import numpy as np

from fockflow.algebra import detector_distribution
from fockflow.analysis import CoincidenceTable, coincidence_table
from fockflow.cdl import compile_circuit, execute, parse_source, rebin
from fockflow.experiments import dial_settings

EXAMPLES = Path(__file__).resolve().parents[1] / "src" / "fockflow" / "examples"
_KINDS = {"path": "external", "spin": "internal"}


@functools.cache
def compiled(name: str):
    """The bundled file ``<name>.cdl`` (``hh_fermion``, ``swap``, ...), compiled once."""
    return compile_circuit(parse_source((EXAMPLES / f"{name}.cdl").read_text()))


def stages(circuit, phases: dict) -> list:
    """The element stages ``execute`` runs at one phase point, `$name` phases bound."""
    out = list(circuit.stages)
    for k, name, port in circuit.params:
        out[k] = circuit.bind(port, float(phases.get(name, 0.0)))
    return out


def readout(circuit, phases: dict) -> dict:
    """The detector probabilities at one phase point."""
    return detector_distribution(execute(circuit, phases))[0]


def parts(circuit, kind: str) -> tuple:
    """Alice's and Bob's bins for a ``--kind`` such as ``spin-path``."""
    return tuple(rebin(circuit, party, _KINDS[word]) for party, word in zip("AB", kind.split("-")))


def table(circuit, kind: str, phases: dict) -> CoincidenceTable:
    return coincidence_table(readout(circuit, phases), *parts(circuit, kind))


def runner(name: str, kind: str):
    """(dial a, dial b) -> coincidence table, for CHSH evaluation."""
    circuit = compiled(name)
    return lambda a, b: table(circuit, kind, dial_settings(a, b))


def occupations(circuit, probs: dict, party: str) -> CoincidenceTable:
    """Mean occupation of each (internal x port) slot on one party's side.

    This is the diagonal of the single-particle reduced density matrix,
    arranged internal labels by the party's ports; its factorization
    residual measures whether the party's internal and external readouts
    are correlated.  Each pattern of ``probs`` adds its probability once
    per slot it holds at the party's ports.
    """
    ports = rebin(circuit, party, "external")
    columns = {e: j for j, (_, slots) in enumerate(ports.bins) for e, _ in slots}
    occ = np.zeros((len(circuit.basis.internals), len(ports.bins)))
    for pattern, p in probs.items():
        for e, i in pattern:
            if e in columns:
                occ[i, columns[e]] += p
    return CoincidenceTable(tuple(circuit.basis.internals), ports.labels(), occ)


def state_deviation(a, b) -> float:
    """The largest amplitude difference between two states, over both supports."""
    keys = set(a.terms) | set(b.terms)
    return max(abs(a.terms.get(k, 0.0) - b.terms.get(k, 0.0)) for k in keys)

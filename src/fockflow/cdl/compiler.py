"""Compile a validated circuit tree into runnable simulator objects."""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra import (
    ModeBasis,
    StateVector,
    Statistics,
    apply_creation,
    norm_squared,
    scale,
    substitute,
    vacuum,
)
from ..analysis import MeasurementPartition
from ..elements import (
    ModeTransform,
    beam_splitter,
    compose,
    dof_sorter,
    exchange_wiring,
    hybrid_beam_splitter,
    phase_shifter,
)
from .parser import (
    CircuitSpecTree,
    ExchangeStmt,
    MeasureStmt,
    PhaseStmt,
    SorterStmt,
    SplitterStmt,
)

_STATISTICS = {
    "boson": Statistics.BOSON,
    "fermion": Statistics.FERMION,
    "distinguishable": Statistics.DISTINGUISHABLE,
}


@dataclass(frozen=True)
class CompiledCircuit:
    tree: CircuitSpecTree
    statistics: Statistics
    basis: ModeBasis
    initial: StateVector
    stages: tuple[ModeTransform, ...]
    partitions: dict  # party -> MeasurementPartition


def compile_circuit(tree: CircuitSpecTree, params: dict | None = None) -> CompiledCircuit:
    """Build (initial state, element stages, measurement partitions).

    ``params`` binds `$name` phase parameters by bare name (no `$`);
    unbound parameters default to 0.0. Particles are listed in operator
    product order: the first declaration is the leftmost creation
    operator, and bosons declared in one mode start in the normalized
    number state. Under distinguishable statistics the k-th particle gets
    species tag k+1 in declaration order.
    """
    params = params or {}
    stats = _STATISTICS[tree.statistics]
    internals = tuple(r.name for r in tree.internals)
    externals = tuple(r.name for r in tree.externals)
    if stats is Statistics.DISTINGUISHABLE:
        species = tuple(range(1, len(tree.particles) + 1))
    else:
        species = (0,)
    basis = ModeBasis(internals=internals, externals=externals, species=species)

    state = vacuum(stats)
    for k in range(len(tree.particles) - 1, -1, -1):
        decl = tree.particles[k]
        sp = species[k] if stats is Statistics.DISTINGUISHABLE else species[0]
        state = apply_creation(
            state, basis.mode(decl.internal.name, decl.external.name, species=sp)
        )
    n2 = norm_squared(state)
    if n2 != 1.0:  # bosons sharing a mode: the raw product has norm^2 prod n_k!
        state = scale(state, n2**-0.5)

    stages = tuple(_compile_element(el, basis, params) for el in tree.elements)
    partitions = {m.party: _compile_measure(m, basis) for m in tree.measures}
    return CompiledCircuit(tree, stats, basis, state, stages, partitions)


def execute(compiled: CompiledCircuit) -> StateVector:
    """Run the initial state through the composed element sequence."""
    if not compiled.stages:
        return compiled.initial
    total = compose(list(compiled.stages), basis=compiled.basis)
    return substitute(compiled.initial, total)


def rebin(compiled: CompiledCircuit, party: str, kind: str) -> MeasurementPartition:
    """One party's measured slots regrouped by port or by internal label.

    ``kind`` "external" makes one bin per port, in the order the ports first
    appear in the party's measure statement; "internal" makes one bin per
    internal label, in declaration order.  A slot is an (external index,
    internal index) pair, so it is sorted into a bin by its index of ``kind``.
    """
    slots = compiled.partitions[party].slots
    basis = compiled.basis
    if kind == "external":
        measure = next(m for m in compiled.tree.measures if m.party == party)
        names = dict.fromkeys(a.external.name for b in measure.bins for a in b.atoms)
        labels = [(name, basis.externals.index(name)) for name in names]
        at = 0
    elif kind == "internal":
        labels = [(name, k) for k, name in enumerate(basis.internals)]
        at = 1
    else:
        raise ValueError(f"kind must be 'internal' or 'external', got {kind!r}")
    bins = tuple((lab, frozenset(s for s in slots if s[at] == k)) for lab, k in labels)
    return MeasurementPartition(party, kind, bins)


def _compile_element(el, basis: ModeBasis, params: dict) -> ModeTransform:
    if isinstance(el, SplitterStmt):
        build = hybrid_beam_splitter if el.kind == "hbs" else beam_splitter
        return build(basis, el.in_a.name, el.in_b.name, el.out_t.name, el.out_r.name)
    if isinstance(el, PhaseStmt):
        if el.arg.param is not None:
            value = float(params.get(el.arg.param[1:], 0.0))
        else:
            value = el.arg.value
        return phase_shifter(basis, el.port.name, value)
    if isinstance(el, (SorterStmt, ExchangeStmt)):
        routing = {r.src.name: r.dst.name for r in el.routes}
        if isinstance(el, SorterStmt) and el.selector == "internal":
            return dof_sorter(basis, routing, port=el.port.name)
        # an external sorter permutes the full port set: a complete exchange
        return exchange_wiring(basis, routing)
    raise TypeError(f"unknown element statement {el!r}")


def _compile_measure(m: MeasureStmt, basis: ModeBasis) -> MeasurementPartition:
    """A measure statement's bins as (external index, internal index) slot sets.

    A bare port atom covers every internal label at that port.
    """
    bins = []
    for b in m.bins:
        slots = set()
        for atom in b.atoms:
            e = basis.externals.index(atom.external.name)
            names = (atom.internal.name,) if atom.internal else basis.internals
            slots.update((e, basis.internals.index(name)) for name in names)
        bins.append((b.label.name, frozenset(slots)))
    return MeasurementPartition(m.party, m.kind, tuple(bins))

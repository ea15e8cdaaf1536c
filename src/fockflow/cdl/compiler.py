"""Compile a validated circuit tree into runnable simulator objects."""

from __future__ import annotations

from functools import lru_cache, partial

from .._record import Record
from ..algebra import (
    ModeBasis,
    StateVector,
    Statistics,
    create,
    norm_squared,
    scale,
    substitute,
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
    SemanticError,
    SorterStmt,
    SplitterStmt,
)

BOUND_STAGE_CAP = 256  # `$name` stages ``bind`` keeps per compiled circuit
_basis = lru_cache(maxsize=4)(ModeBasis)  # equal label sets share a basis and its monomials


class CompiledCircuit(Record):
    """A circuit ready to run; ``execute`` binds its `$name` phases.

    ``stages`` holds one transform per element statement, with each `$name`
    phase compiled at 0.0.  ``params`` lists one (stage index, bare name,
    port) per `$name` phase.  ``partitions`` maps a party to its
    ``MeasurementPartition``.  ``bind(port, value)`` is the phase stage at
    that port: ``phase_shifter`` over the circuit's basis behind an LRU
    cache of the last ``BOUND_STAGE_CAP`` (port, value) pairs.  The values
    0.0 and -0.0 share an entry: their stages differ only in the sign of a
    zero imaginary part, which no probability sees.  Equality, hash and
    repr read every field but ``bind``.
    """

    _fields = ("tree", "basis", "initial", "stages", "partitions", "params")

    def __init__(
        self,
        tree: CircuitSpecTree,
        basis: ModeBasis,
        initial: StateVector,
        stages: tuple[ModeTransform, ...],
        partitions: dict,
        params: tuple[tuple[int, str, str], ...],
        bind,
    ) -> None:
        d = self.__dict__
        d["tree"], d["basis"], d["initial"], d["stages"] = tree, basis, initial, stages
        d["partitions"], d["params"], d["bind"] = partitions, params, bind


def compile_circuit(tree: CircuitSpecTree) -> CompiledCircuit:
    """Build (initial state, element stages, measurement partitions) once.

    A `$name` phase compiles at 0.0 here; ``execute`` binds it. Particles
    are listed in operator product order: the first declaration is the
    leftmost creation operator, and bosons declared in one mode start in
    the normalized number state. Under distinguishable statistics the k-th
    particle gets species tag k+1 in declaration order. The initial state
    comes from ``create``, whose left insertion is the reordering rule
    ``substitute`` applies to the final state too.
    """
    stats = Statistics(tree.statistics)
    internals = tuple(r.name for r in tree.internals)
    externals = tuple(r.name for r in tree.externals)
    if stats is Statistics.DISTINGUISHABLE:
        species = tags = tuple(range(1, len(tree.particles) + 1))
    else:
        species, tags = (0,), (0,) * len(tree.particles)
    basis = _basis(internals, externals, species)

    ranks = [
        basis.index_of(basis.mode(p.internal.name, p.external.name, species=sp))
        for p, sp in zip(tree.particles, tags)
    ]
    state = create(basis, stats, ranks)
    n2 = norm_squared(state)
    if n2 != 1.0:  # bosons sharing a mode: the raw product has norm^2 prod n_k!
        state = scale(state, n2**-0.5)

    bind = lru_cache(maxsize=BOUND_STAGE_CAP)(partial(phase_shifter, basis))
    stages, params = [], []
    for k, el in enumerate(tree.elements):
        try:
            if isinstance(el, PhaseStmt) and el.arg.param is not None:
                params.append((k, el.arg.param, el.port.name))
                stages.append(bind(el.port.name, 0.0))
            else:
                stages.append(_compile_element(el, basis))
        except ValueError as e:  # a builder's complaint, placed at the statement
            at = getattr(el, "in_a", None) or getattr(el, "port", None) or el.routes[0].src
            raise SemanticError(str(e), at.line, at.col) from e
    partitions = {m.party: _compile_measure(m, basis) for m in tree.measures}
    return CompiledCircuit(tree, basis, state, tuple(stages), partitions, tuple(params), bind)


def execute(compiled: CompiledCircuit, params: dict | None = None) -> StateVector:
    """Run the initial state through the element sequence.

    ``compose`` chains the stages' slot maps, and ``substitute`` pushes
    only the occupied modes' columns through them.
    ``params`` binds `$name` phase parameters by bare name (no `$`);
    unbound ones stay at 0.0. Each `$name` stage is ``compiled.bind`` at
    its port and bound value, so one compiled circuit serves every phase
    setting and builds a stage only on a cache miss.
    """
    if not compiled.stages:
        return compiled.initial
    params = params or {}
    stages = list(compiled.stages)
    for k, name, port in compiled.params:
        stages[k] = compiled.bind(port, float(params.get(name, 0.0)))  # a raise caches nothing
    return substitute(compiled.initial, compose(stages))


def rebin(compiled: CompiledCircuit, party: str, kind: str) -> MeasurementPartition:
    """One party's measured slots regrouped by port or by internal label.

    ``kind`` "external" makes one bin per port, in the order the ports first
    appear in the party's measure statement; "internal" makes one bin per
    internal label, in declaration order.  A slot is an (external index,
    internal index) pair, so it is sorted into a bin by its index of ``kind``.
    A party the file does not measure raises ``ValueError``.
    """
    if party not in compiled.partitions:
        measured = ", ".join(sorted(compiled.partitions)) or "no party"
        raise ValueError(f"party {party!r} is not measured (the file measures {measured})")
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


def _compile_element(el, basis: ModeBasis) -> ModeTransform:
    """One element statement's transform; ``compile_circuit`` binds `$name` phases."""
    if isinstance(el, SplitterStmt):
        build = hybrid_beam_splitter if el.kind == "hbs" else beam_splitter
        return build(basis, el.in_a.name, el.in_b.name, el.out_t.name, el.out_r.name)
    if isinstance(el, PhaseStmt):
        return phase_shifter(basis, el.port.name, el.arg.value)
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

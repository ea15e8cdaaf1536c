"""Value behaviour of the record classes.

The package's records are values: their fields cannot be assigned or
deleted, equality and hash read a fixed tuple of fields, and the repr
lists those fields.  A record built from the wrong number of values
raises ``TypeError`` naming its class.  Bound stages and monomials are
shared across runs (``CompiledCircuit.bind``'s LRU and
``ModeBasis.monomial``), so a write through one of them would reach every
later run.  ``StateVector`` and the lexer's ``Token`` are the two mutable,
unhashable records.
"""

import pickle
import re
from pathlib import Path

import pytest

from fockflow.algebra import Label, Mode, ModeBasis, Statistics, create
from fockflow.analysis import CoincidenceTable, MeasurementPartition
from fockflow.cdl import compile_circuit, parse_source
from fockflow.cdl.lexer import Token
from fockflow.cdl.parser import (
    BinDecl,
    CircuitSpecTree,
    ExchangeStmt,
    LabelRef,
    MeasureStmt,
    ModeAtom,
    ParticleDecl,
    PhaseArg,
    PhaseStmt,
    Route,
    SorterStmt,
    SplitterStmt,
)
from fockflow.elements import beam_splitter
from fockflow.experiments import QubitState, run_circuit

EXAMPLES = Path(__file__).resolve().parents[1] / "src" / "fockflow" / "examples"

BASIS = ModeBasis(internals=("down", "up"), externals=("L", "R"))
A, B = LabelRef("a", 1, 2), LabelRef("b", 3, 4)
ROUTE = Route(A, B)
ATOM = ModeAtom(A, B)
BIN = BinDecl(A, (ATOM,))
MEASURE = MeasureStmt("A", "external", (BIN,))
PARTICLE = ParticleDecl(A, B)
TREE = parse_source((EXAMPLES / "swap.cdl").read_text())

# (record, one of its fields)
READ_ONLY = [
    (Label("down", 0), "name"),
    (BASIS.modes[1], "internal"),
    (BASIS, "internals"),
    (BASIS.monomial((0, 1)), "entries"),
    (beam_splitter(BASIS, "L", "R"), "maps"),
    (compile_circuit(TREE), "stages"),
    (MeasurementPartition("A", "external", (("L", frozenset({(0, 0)})),)), "bins"),
    (CoincidenceTable(("a",), ("b",), ((1.0,),)), "probs"),
    (QubitState(1.0, 0.0), "amp0"),
    (run_circuit("hh", Statistics.BOSON, {}), "final_state"),
    (A, "name"),
    (PhaseArg(value=0.5), "value"),
    (ROUTE, "src"),
    (PARTICLE, "internal"),
    (SplitterStmt("bs", A, B, A, B), "kind"),
    (PhaseStmt(A, PhaseArg(param="phi")), "arg"),
    (SorterStmt("internal", A, (ROUTE,)), "routes"),
    (ExchangeStmt((ROUTE,)), "routes"),
    (ATOM, "external"),
    (BIN, "atoms"),
    (MEASURE, "bins"),
    (TREE, "elements"),
]


def _record_id(x):
    return x if isinstance(x, str) else type(x).__name__


@pytest.mark.parametrize(("record", "name"), READ_ONLY, ids=_record_id)
def test_fields_are_read_only(record, name):
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unlisted = 1
    assert getattr(record, name) is value


@pytest.mark.parametrize(
    ("cls", "values"),
    [(Route, (A,)), (SplitterStmt, ("bs", A, B)), (CircuitSpecTree, ((),) * 7)],
    ids=["Route", "SplitterStmt", "CircuitSpecTree"],
)
def test_a_wrong_number_of_values_raises_type_error(cls, values):
    with pytest.raises(TypeError, match=rf"^{cls.__name__}\b"):
        cls(*values)


def test_label_ref_equality_and_hash_ignore_the_position():
    moved = LabelRef("a", 7, 9)
    assert moved == A and hash(moved) == hash(A) == hash(("a",))
    assert LabelRef("b", 1, 2) != A
    assert repr(moved) == "LabelRef(name='a')"


def test_equality_and_hash_read_the_field_tuple():
    assert hash(Label("down", 0)) == hash(("down", 0))
    assert hash(ROUTE) == hash((A, B))
    assert hash(ExchangeStmt((ROUTE,))) == hash(((ROUTE,),))
    assert hash(BASIS) == hash((("down", "up"), ("L", "R"), (0,)))
    assert BASIS == ModeBasis(internals=("down", "up"), externals=("L", "R"), species=(0,))
    assert BASIS != ModeBasis(internals=("down", "up"), externals=("L", "R"), species=(1,))
    nan = PhaseArg(value=float("nan"))
    assert nan == nan  # one tuple compared with itself: its fields by identity first


def test_caches_and_callables_stay_outside_equality():
    read, fresh = beam_splitter(BASIS, "L", "R"), beam_splitter(BASIS, "L", "R")
    read.columns  # fills the per-column cache of one of them
    assert read == fresh
    one, two = compile_circuit(TREE), compile_circuit(TREE)
    assert one.bind is not two.bind and one == two


def test_reprs_list_the_compared_fields():
    assert repr(Label("down", 0)) == "Label(name='down', index=0)"
    assert repr(BASIS.modes[0]) == (
        "Mode(species=0, internal=Label(name='down', index=0), external=Label(name='L', index=0))"
    )
    assert repr(BASIS) == "ModeBasis(internals=('down', 'up'), externals=('L', 'R'), species=(0,))"
    assert repr(PhaseStmt(A, PhaseArg(param="phi"))) == (
        "PhaseStmt(port=LabelRef(name='a'), arg=PhaseArg(value=None, param='phi'))"
    )
    assert repr(QubitState(1.0, 0.0)) == "QubitState(amp0=1.0, amp1=0.0)"


def test_token_equality_ignores_the_value_and_its_repr_shows_it():
    one, two = Token("number", "1", 1, 1, value=1.0), Token("number", "1", 1, 1, value=2.0)
    assert one == two
    assert one != Token("number", "1", 1, 2, value=1.0)
    assert repr(one) == "Token(kind='number', text='1', line=1, col=1, value=1.0)"
    one.value = 3.0  # a token is not frozen
    assert one.value == 3.0


@pytest.mark.parametrize(
    "record",
    [Token("end", "", 1, 1), create(BASIS, Statistics.BOSON, [0])],
    ids=lambda r: type(r).__name__,
)
def test_mutable_records_are_unhashable(record):
    with pytest.raises(TypeError):
        hash(record)


def test_different_classes_with_equal_fields_are_unequal():
    assert (Route(A, B) == ParticleDecl(A, B)) is False
    assert (ParticleDecl(A, B) == ModeAtom(A, B)) is False
    assert Route.__eq__(Route(A, B), ParticleDecl(A, B)) is NotImplemented
    assert Label("a", 0) != ("a", 0)


@pytest.mark.parametrize(
    "record",
    [
        TREE,
        BASIS,
        Mode(0, Label("up", 1), Label("R", 1)),
        MeasurementPartition("A", "external", (("L", frozenset({(0, 0)})),)),
        CoincidenceTable(("a",), ("b",), ((1.0,),)),
    ],
    ids=lambda r: type(r).__name__,
)
def test_records_survive_a_pickle_round_trip(record):
    loaded = pickle.loads(pickle.dumps(record))
    assert loaded == record and repr(loaded) == repr(record)
    with pytest.raises(AttributeError):
        loaded.extra = 1


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: ModeBasis(internals=(), externals=("L",)), "internal label set must be nonempty"),
        (lambda: ModeBasis(internals=("h",), externals=("L",), species=()), "species ids"),
        (lambda: MeasurementPartition("A", "x", (("a", {(0,)}),)), "is not an (int, int) slot"),
    ],
)
def test_constructors_keep_their_checks(build, message):  # the checks no other test reaches
    with pytest.raises(ValueError, match=re.escape(message)):
        build()

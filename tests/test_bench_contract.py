"""What the benchmark's tracer reads of the program, checked in the test suite.

``bench/spans.py`` wraps fockflow functions by name and reads a few
attributes of the engine's objects. A refactor that renames one of them
breaks the traced benchmark run; these tests make it break here first.
The harness file is loaded by path and only read.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import fockflow.cli  # noqa: F401  (loads every module the tracer targets)
import fockflow.experiments  # noqa: F401
from fockflow.algebra import substitute
from fockflow.cdl import compile_circuit, parse_source
from fockflow.elements import compose

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def spans():
    path = ROOT / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable(spans):
    for module, attr in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_substitute_counts_reads_an_hh_run(spans):
    source = (ROOT / "src" / "fockflow" / "examples" / "hh_fermion.cdl").read_text()
    compiled = compile_circuit(parse_source(source))
    transform = compose(compiled.stages)
    result = substitute(compiled.initial, transform)
    n, statistics, product_terms, terms_out = spans.substitute_counts(
        (compiled.initial, transform), result
    )
    assert (n, statistics, terms_out) == (2, "fermion", len(result.terms))
    assert product_terms >= terms_out > 0


def test_traced_table_records_substitute(spans, capsys):
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = sys.modules["fockflow.cli"].main(["table", "hh"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    names = {span[0] for span in tracer.take()}
    assert {"cli.main", "algebra.substitute", "analysis.completeness"} <= names

"""What the benchmark reads of the program, checked in the test suite.

``bench/spans.py`` wraps fockflow functions by name and reads a few
attributes of the engine's objects, and ``bench/workloads.py`` reads the
many-particle states through ``Monomial`` and ``Mode`` attributes. A
refactor that renames one of them breaks the benchmark run; these tests
make it break here first. The harness files are loaded by path and only
read.
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


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling modules by bare name
    bench = str(ROOT / "bench")
    before = set(sys.modules)
    sys.path.insert(0, bench)
    try:
        path = ROOT / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads_under_test", path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses resolve annotations through it
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(bench)
        for name in ("oracles", "spans"):
            if name not in before:
                sys.modules.pop(name, None)
    return module


def test_every_target_resolves_to_a_callable(spans):
    for module, attr in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


@pytest.mark.parametrize(
    "name, counts",
    [
        ("hh_fermion", (2, "fermion", 16, 4)),
        ("hh_boson", (2, "boson", 16, 6)),
        ("hh_distinguishable", (2, "distinguishable", 16, 16)),
        ("swap", (2, "boson", 16, 6)),
    ],
)
def test_substitute_counts_reads_an_hh_run(spans, name, counts):
    source = (ROOT / "src" / "fockflow" / "examples" / f"{name}.cdl").read_text()
    compiled = compile_circuit(parse_source(source))
    transform = compose(compiled.stages)
    result = substitute(compiled.initial, transform)
    got = spans.substitute_counts((compiled.initial, transform), result)
    assert tuple(got) == counts
    assert got[3] == len(result.terms)


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


@pytest.mark.parametrize("stats", ["boson", "fermion"])
def test_many_particle_run_reads_ok(workloads, stats):
    workload = workloads.ManyParticle(ROOT, 1)
    command = next(c for c in workload.commands() if c[:2] == (3, stats))
    result = workload.run_op(command, None)
    assert result.status == "ok", result.reason

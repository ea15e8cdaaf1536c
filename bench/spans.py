"""In-memory spans around fockflow's public functions, for the traced run.

The benchmark never edits the program: it rebinds each public function
below, in every loaded ``fockflow`` module namespace that holds it, to a
wrapper that records ``[name, start_ns, end_ns, parent, extra]``.  The
parent is the index of the enclosing span (-1 for a root), so self time
is a span's duration minus its direct children's.

Run as a script, this file is the traced stand-in for
``python -m fockflow.cli``: it times the import of ``fockflow.cli`` in
this fresh interpreter, runs ``fockflow.cli.main`` under the tracer and
writes the spans as one JSON line after ``MARK`` on stderr.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

MARK = "#bench-spans "

# (defining module, function name) -> span name
TARGETS = {
    ("fockflow.cli", "main"): "cli.main",
    ("fockflow.cdl.parser", "parse_source"): "cdl.parse",
    ("fockflow.cdl.compiler", "compile_circuit"): "cdl.compile",
    ("fockflow.cdl.compiler", "execute"): "cdl.execute",
    ("fockflow.experiments", "run_circuit"): "experiments.run_circuit",
    ("fockflow.experiments", "circuit_stages"): "experiments.stages",
    ("fockflow.experiments", "signaling_decode_mc"): "experiments.decode_mc",
    ("fockflow.experiments", "sorter_cascade"): "experiments.cascade",
    ("fockflow.elements", "beam_splitter"): "elements.build",
    ("fockflow.elements", "hybrid_beam_splitter"): "elements.build",
    ("fockflow.elements", "phase_shifter"): "elements.build",
    ("fockflow.elements", "dof_sorter"): "elements.build",
    ("fockflow.elements", "exchange_wiring"): "elements.build",
    ("fockflow.elements", "compose"): "elements.compose",
    ("fockflow.algebra", "substitute"): "algebra.substitute",
    ("fockflow.analysis", "coincidence_table"): "analysis.table",
    ("fockflow.analysis", "correlation"): "analysis.correlation",
    ("fockflow.analysis", "completeness"): "analysis.completeness",
}


def substitute_counts(args, result):
    """(N, statistics, product_terms, terms_out) of one ``substitute`` call.

    product_terms is what the expansion enumerates: for each input term,
    the product over its operators of that operator's column nonzeros.
    """
    state, transform = args[0], args[1]
    basis, columns = transform.basis, transform.columns
    n = 0
    product_terms = 0
    for mono in state.terms:
        ops = mono.ops()
        n = max(n, len(ops))
        k = 1
        for mode in ops:
            k *= len(columns[basis.index_of(mode)])
        product_terms += k
    return [n, state.statistics.value, product_terms, len(result.terms)]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0, 0, parent, None]
        index = len(self.spans)
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()
        if name == "algebra.substitute":
            span[4] = substitute_counts(args, result)
        return result

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self):
        """Rebind every target in every loaded fockflow module that holds it."""
        originals = {}
        for (module, attr), name in TARGETS.items():
            if module in sys.modules:  # a workload need not load every module
                originals[id(getattr(sys.modules[module], attr))] = name
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "fockflow" or modname.startswith("fockflow.")):
                continue
            for attr, value in list(vars(module).items()):
                name = originals.get(id(value))
                if name is not None and callable(value):
                    setattr(module, attr, self._wrapper(name, value))
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def take(self) -> list:
        spans, self.spans = self.spans, []
        return spans


SIZES = (2, 3, 4, 5)
COUNTED = [(stats, n) for stats in ("boson", "fermion") for n in (3, 4, 5)]

LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cdl.parse_us": "us",
    "cdl.compile_us": "us",
    "experiments.stages_us": "us",
    "experiments.decode_mc_s": "s",
    "experiments.cascade_us": "us",
    "elements.build_us": "us",
    "elements.calls": "count",
    "elements.compose_us": "us",
    **{f"algebra.substitute_us.N{n}": "us" for n in SIZES},
    **{f"algebra.product_terms.{s}.N{n}": "count" for s, n in COUNTED},
    **{f"algebra.terms_out.{s}.N{n}": "count" for s, n in COUNTED},
    **{f"algebra.yield.{s}.N{n}": "ratio" for s, n in COUNTED},
    "analysis.table_us": "us",
    "analysis.correlation_us": "us",
    "analysis.completeness_us": "us",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

# metric -> (span name, "total" or "self" time, scale from ns)
_TIMED = {
    "cli.self_s": ("cli.main", "self", 1e-9),
    "cdl.parse_us": ("cdl.parse", "total", 1e-3),
    "cdl.compile_us": ("cdl.compile", "self", 1e-3),
    "experiments.decode_mc_s": ("experiments.decode_mc", "total", 1e-9),
    "experiments.cascade_us": ("experiments.cascade", "total", 1e-3),
    "elements.build_us": ("elements.build", "total", 1e-3),
    "elements.compose_us": ("elements.compose", "total", 1e-3),
    "analysis.table_us": ("analysis.table", "total", 1e-3),
    "analysis.correlation_us": ("analysis.correlation", "total", 1e-3),
    "analysis.completeness_us": ("analysis.completeness", "total", 1e-3),
}


def _median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0  # the workload never enters this layer
    return (ordered[(n - 1) // 2] + ordered[n // 2]) / 2.0


class LayerStats:
    """Per-layer figures derived from the spans of many operations.

    Times are medians per call; a layer the workload never enters reads 0.
    ``elements.calls`` is element constructions per unit of work.
    """

    def __init__(self):
        self.times: dict = {}
        self.substitute: dict = {}
        self.counts: dict = {}
        self.builds = 0
        self.units = 0
        self.op_ns = 0
        self.root_ns = 0

    def _add(self, key, value):
        self.times.setdefault(key, []).append(value)

    def absorb(self, spans, op_ns: int, units: int):
        self.op_ns += op_ns
        self.units += units
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        experiments_self = {}
        for i, (name, start, end, parent, extra) in enumerate(spans):
            total = end - start
            own = total - child_ns[i]
            self._add((name, "total"), total)
            self._add((name, "self"), own)
            if parent < 0:
                self.root_ns += total
            if name == "elements.build":
                self.builds += 1
            elif name == "experiments.run_circuit":
                experiments_self[i] = own
            elif name == "experiments.stages" and parent in experiments_self:
                experiments_self[parent] += own
            elif name == "algebra.substitute" and extra is not None:
                n, stats, product_terms, terms_out = extra
                self.substitute.setdefault(n, []).append(total)
                self.counts.setdefault((stats, n), []).append((product_terms, terms_out))
        for own in experiments_self.values():
            self._add("experiments", own)

    def metrics(self) -> dict:
        out = {}
        for metric, (span, which, scale) in _TIMED.items():
            out[metric] = _median(self.times.get((span, which), [])) * scale
        out["experiments.stages_us"] = _median(self.times.get("experiments", [])) * 1e-3
        out["elements.calls"] = self.builds / self.units if self.units else 0.0
        for n in SIZES:
            out[f"algebra.substitute_us.N{n}"] = _median(self.substitute.get(n, [])) * 1e-3
        for stats, n in COUNTED:
            pairs = self.counts.get((stats, n), [])
            product_terms = _median([p for p, _ in pairs])
            terms_out = _median([t for _, t in pairs])
            out[f"algebra.product_terms.{stats}.N{n}"] = product_terms
            out[f"algebra.terms_out.{stats}.N{n}"] = terms_out
            out[f"algebra.yield.{stats}.N{n}"] = terms_out / product_terms if product_terms else 0.0
        out["trace.coverage"] = self.root_ns / self.op_ns if self.op_ns else 0.0
        return out


def _main(argv) -> int:
    start = perf_counter_ns()
    import fockflow.cli

    import_ns = perf_counter_ns() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = fockflow.cli.main(argv)
    finally:
        sys.stdout.flush()
        payload = {"import_ns": import_ns, "spans": tracer.spans}
        sys.stderr.write(MARK + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))

"""End-to-end tests of the command line, driven through main()."""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from fockflow import algebra, cli
from fockflow.algebra import StateVector
from fockflow.cdl import compiler, execute, parse_source
from fockflow.cli import main, parse_phase
from fockflow.experiments import MAX_MC_DRAWS

EXAMPLES = Path(__file__).resolve().parents[1] / "src" / "fockflow" / "examples"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == 0, err
    return json.loads(out)


class TestParsePhase:
    def test_expressions(self):
        assert parse_phase("pi/4") == pytest.approx(math.pi / 4, abs=0)
        assert parse_phase("-0.5") == -0.5

    def test_rejects_garbage(self):
        with pytest.raises(Exception):
            parse_phase("banana")


class TestTable:
    def test_fermion_at_zero_is_diagonal(self, capsys):
        rec = run_json(capsys, "table", "hh")
        assert rec["table"]["cells"] == pytest.approx([0.25, 0.0, 0.0, 0.25], abs=1e-12)
        assert rec["statistics"] == "fermion"
        assert rec["metadata"]["completeness"] == pytest.approx(1.0, abs=1e-12)

    def test_distinguishable_flattens(self, capsys):
        rec = run_json(capsys, "table", "hh", "--stats", "distinguishable")
        assert rec["table"]["cells"] == pytest.approx([0.125] * 4, abs=1e-12)
        assert rec["E"] == pytest.approx(0.0, abs=1e-12)

    def test_swap_at_quarter_turn_flattens(self, capsys):
        rec = run_json(capsys, "table", "swap", "--phase-d=pi/2")
        assert rec["table"]["cells"] == pytest.approx([0.125] * 4, abs=1e-9)
        assert rec["table"]["row_labels"] == ["H", "V"]

    @pytest.mark.parametrize("name", ["phiL", "phiD", "phiR", "phiU"])
    def test_standard_phases_cannot_be_bound_by_param(self, capsys, name):
        # the record reports the --phase-* values, so --param must not override them
        code, out, err = run(capsys, "table", "hh", "--param", f"{name}=1.3", "--json")
        assert code == 2
        assert out == ""
        assert name in err and "--phase" in err

    def test_human_output_mentions_completeness(self, capsys):
        code, out, _ = run(capsys, "table", "hh")
        assert code == 0
        assert "completeness 1.0" in out

    def test_json_is_byte_identical_across_runs(self, capsys):
        _, out1, _ = run(capsys, "table", "hh", "--json")
        _, out2, _ = run(capsys, "table", "hh", "--json")
        assert out1 == out2

    def test_schema_keys(self, capsys):
        rec = run_json(capsys, "table", "hh")
        assert rec["schema"] == 1
        for key in ("experiment", "statistics", "phases", "table", "E", "chsh", "metadata"):
            assert key in rec
        assert set(rec["phases"]) == {"phiL", "phiD", "phiR", "phiU"}

    def test_file_circuit(self, capsys):
        rec = run_json(capsys, "table", str(EXAMPLES / "hh_fermion.cdl"))
        assert rec["table"]["cells"] == pytest.approx([0.25, 0.0, 0.0, 0.25], abs=1e-12)

    def test_file_stats_conflict(self, capsys):
        code, _, err = run(
            capsys, "table", str(EXAMPLES / "hh_fermion.cdl"), "--stats", "boson"
        )
        assert code == 2
        assert "conflicts" in err

    def test_file_without_measures(self, capsys):
        code, _, err = run(capsys, "table", str(EXAMPLES / "cascade2.cdl"))
        assert code == 2
        assert "both parties" in err

    def test_swap_rejects_fermions(self, capsys):
        code, _, err = run(capsys, "table", "swap", "--stats", "fermion")
        assert code == 2
        assert "conflicts" in err

    def test_file_kind_uses_the_kind_vocabulary(self, capsys):
        rec = run_json(capsys, "table", str(EXAMPLES / "wiring.cdl"))
        assert rec["values"]["kind"] == "path-path"
        assert rec["table"]["row_labels"] == ["a"]
        assert rec["E"] is None

    def test_kind_rebins_a_file(self, capsys):
        rec = run_json(capsys, "table", str(EXAMPLES / "wiring.cdl"), "--kind", "spin-spin")
        assert rec["values"]["kind"] == "spin-spin"
        assert rec["table"]["row_labels"] == ["down", "up"]
        assert sum(rec["table"]["cells"]) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_kind_exits_2(self, capsys):
        code, out, err = run(capsys, "table", "hh", "--kind", "path-charge")
        assert code == 2
        assert out == ""
        assert "--kind" in err and "path-charge" in err

    @pytest.mark.parametrize("command", [["table"], ["chsh"], ["sweep", "--steps", "1"]])
    @pytest.mark.parametrize("leak", [1.01, 0.0])  # 0.0 leaves the zero state
    @pytest.mark.parametrize("circuit", ["hh", str(EXAMPLES / "swap.cdl")], ids=lambda c: Path(c).name)
    def test_norm_drift_is_a_numeric_failure(self, capsys, monkeypatch, circuit, leak, command):
        execute = cli.execute

        def leaky(compiled, params=None):
            state = execute(compiled, params)
            terms = {m: leak * a for m, a in state.terms.items()}
            return StateVector(state.statistics, terms)

        monkeypatch.setattr(cli, "execute", leaky)
        code, out, err = run(capsys, command[0], circuit, *command[1:])
        assert code == 3
        assert out == ""
        assert "norm" in err

    def test_bad_phase_expression(self, capsys):
        assert main(["table", "hh", "--phase-d", "banana"]) == 2

    def test_unknown_circuit_name_is_a_missing_file(self, capsys):
        code, _, _ = run(capsys, "table", "mach-zehnder")
        assert code == 4  # treated as a path and not found

    @pytest.mark.parametrize(
        "statistics, particles",
        [
            ("boson", ["down L", "up D", "down R"]),
            ("fermion", ["down L", "up D", "down R"]),
            ("distinguishable", ["down L", "up D", "down R"]),
            ("boson", ["up L"]),
            ("fermion", ["down D"]),
        ],
    )
    def test_complete_for_any_particle_count(self, capsys, tmp_path, statistics, particles):
        f = tmp_path / "circuit.cdl"
        f.write_text(
            "\n".join(
                [
                    "internal down up",
                    "external L D R U",
                    f"statistics {statistics}",
                    *(f"particle {p}" for p in particles),
                    "hbs R D R D",
                    "bs L U L U",
                    "phase D 0.7",
                    "hbs D L D L",
                    "phase U 1.9",
                    "bs R U R U",
                    "hbs L R L R",
                    "measure A external bin D = D bin L = L",
                    "measure B external bin R = R bin U = U",
                ]
            )
            + "\n"
        )
        rec = run_json(capsys, "table", str(f))
        assert rec["metadata"]["completeness"] == pytest.approx(1.0, abs=1e-12)

    def test_other_particle_counts_get_a_note_on_stderr(self, capsys, tmp_path):
        f = tmp_path / "three.cdl"
        f.write_text(
            "internal down up\nexternal L D R U\nstatistics fermion\n"
            "particle down L\nparticle up D\nparticle down R\n"
            "hbs R D R D\nbs L U L U\n"
            "measure A external bin D = D bin L = L\n"
            "measure B external bin R = R bin U = U\n"
        )
        code, out, err = run(capsys, "table", str(f), "--json")
        assert code == 0
        assert "two-particle outcomes only" in err and "3 particles" in err
        rec = json.loads(out)
        assert rec["table"] == {
            "row_labels": ["D", "L"],
            "col_labels": ["R", "U"],
            "cells": [0.0, 0.0, 0.0, 0.0],
        }
        assert rec["E"] is None
        assert rec["metadata"]["completeness"] == pytest.approx(1.0, abs=1e-12)

    def test_two_particles_leave_stderr_empty(self, capsys):
        code, _, err = run(capsys, "table", "hh", "--json")
        assert (code, err) == (0, "")


class TestTolerance:
    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "-inf", "abc"])
    def test_rejects_non_positive_or_non_finite(self, capsys, value):
        code, out, err = run(capsys, "table", "hh", "--tolerance", value)
        assert code == 2
        assert out == ""
        assert "--tolerance" in err

    def test_accepts_a_looser_tolerance(self, capsys):
        rec = run_json(capsys, "table", "hh", "--tolerance", "1e-6")
        assert rec["metadata"]["tolerance"] == 1e-6

    def test_zero_state_fails_at_any_tolerance(self, capsys, monkeypatch):
        # |0 - 1| is within a tolerance of 2, but no probability can be read
        execute = cli.execute

        def vanishing(compiled, params=None):
            return StateVector(execute(compiled, params).statistics, {})

        monkeypatch.setattr(cli, "execute", vanishing)
        code, out, err = run(capsys, "table", "hh", "--tolerance", "2")
        assert (code, out) == (3, "")
        assert "norm^2 = 0" in err

    @pytest.mark.parametrize("poison", ["norm", "cells"])
    def test_nan_fails_the_invariant_checks(self, capsys, monkeypatch, poison):
        # |nan - 1| > tolerance is False too, so each check must ask for <=
        readout = cli.detector_distribution

        def poisoned(state):
            probs, n2 = readout(state)
            if poison == "norm":
                return probs, math.nan
            return dict.fromkeys(probs, math.nan), n2

        monkeypatch.setattr(cli, "detector_distribution", poisoned)
        code, out, err = run(capsys, "table", "hh")
        assert (code, out) == (3, "")
        assert ("norm^2 = nan" if poison == "norm" else "sum to nan") in err


class TestChsh:
    def test_fermion_default_quadruple(self, capsys):
        rec = run_json(capsys, "chsh", "hh")
        assert rec["chsh"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert rec["values"]["dials"] == pytest.approx(
            [0.0, math.pi, math.pi / 4, -math.pi / 4]
        )

    def test_search_reaches_tsirelson_on_swap(self, capsys):
        rec = run_json(capsys, "chsh", "swap", "--search")
        assert rec["chsh"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert rec["values"]["searched"] is True

    def test_distinguishable_stays_classical(self, capsys):
        rec = run_json(capsys, "chsh", "hh", "--stats", "distinguishable")
        assert rec["chsh"] == pytest.approx(0.0, abs=1e-12)

    def test_dials_and_search_exclude_each_other(self, capsys):
        code, out, err = run(capsys, "chsh", "hh", "--search", "--dials", "0,0,0,0")
        assert (code, out) == (2, "")
        assert "not allowed with" in err

    def test_explicit_dials(self, capsys):
        rec = run_json(capsys, "chsh", "hh", "--dials", "0,pi,pi/4,-pi/4")
        assert rec["chsh"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_file_circuit_via_dial_binding(self, capsys):
        rec = run_json(capsys, "chsh", str(EXAMPLES / "swap.cdl"))
        assert rec["chsh"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert rec["statistics"] == "boson"

    def test_labels_outside_the_sign_map(self, capsys):
        code, out, err = run(capsys, "chsh", str(EXAMPLES / "wiring.cdl"))
        assert code == 2
        assert out == ""
        assert "sign map" in err

    @pytest.mark.parametrize(
        "flag", ["--phase-l=0.2", "--phase-d=1.3", "--phase-r=0.4", "--phase-u=1"]
    )
    def test_phase_flags_are_not_options(self, capsys, flag):
        code, out, err = run(capsys, "chsh", "hh", flag)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("name", ["phiL", "phiD", "phiR", "phiU"])
    def test_dialed_phases_cannot_be_bound(self, capsys, name):
        code, out, err = run(capsys, "chsh", "hh", "--param", f"{name}=1.3")
        assert code == 2
        assert out == ""
        assert name in err and "dials" in err

    def test_other_params_still_bind(self, capsys, tmp_path):
        # a second plate beside $phiD shifts Alice's dial by $theta
        f = tmp_path / "theta.cdl"
        source = (EXAMPLES / "hh_fermion.cdl").read_text()
        f.write_text(source.replace("phase D $phiD\n", "phase D $phiD\nphase D $theta\n"))
        plain = run_json(capsys, "chsh", str(f))
        bound = run_json(capsys, "chsh", str(f), "--param", "theta=1.3")
        assert plain["chsh"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
        assert bound["chsh"] != pytest.approx(plain["chsh"], abs=1e-3)

    @pytest.mark.parametrize("argv, runs", [(["chsh", "hh"], 4), (["chsh", "hh", "--search"], 256)])
    def test_each_dial_pair_runs_once(self, capsys, monkeypatch, argv, runs):
        calls = []

        def counted(compiled, params=None):
            calls.append(compiled)
            return execute(compiled, params)

        monkeypatch.setattr(cli, "execute", counted)
        code, _, _ = run(capsys, *argv)
        assert code == 0
        assert len(calls) == runs


@pytest.mark.parametrize("command", ["table", "chsh"])
def test_undeclared_param_is_an_input_error(capsys, command):
    code, out, err = run(capsys, command, "hh", "--param", "typo=1")
    assert code == 2
    assert out == ""
    assert "typo" in err and "phiL" in err


@pytest.mark.parametrize(
    "argv", [["sweep", "hh", "--steps", "2"], ["chsh", "hh", "--search"]], ids=["sweep", "search"]
)
def test_circuit_compiles_once_per_command(capsys, monkeypatch, argv):
    calls = []
    compile_circuit = cli.compile_circuit

    def counted(tree):
        calls.append(tree)
        return compile_circuit(tree)

    monkeypatch.setattr(cli, "compile_circuit", counted)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


def _count_phase_builds(monkeypatch) -> list:
    """Record every (port, value) phase stage the compiler builds."""
    builds = []
    phase_shifter = compiler.phase_shifter

    def counted(basis, port, phase):
        builds.append((port, phase))
        return phase_shifter(basis, port, phase)

    monkeypatch.setattr(compiler, "phase_shifter", counted)
    return builds


def _count_readouts(monkeypatch) -> list:
    """Log the name of each finished detector_distribution, norm_squared and compile_circuit call.

    Each is patched in every loaded fockflow module that holds it.
    """
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append(fn.__name__)
            return result

        return counted

    for fn in (algebra.detector_distribution, algebra.norm_squared, compiler.compile_circuit):
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "fockflow" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting(fn))
    return calls


@pytest.mark.parametrize(
    "argv, points",
    [(["table", "hh"], 1), (["chsh", "hh"], 4), (["sweep", "hh", "--steps", "2"], 16)],
    ids=["table", "chsh", "sweep"],
)
def test_one_readout_per_point(capsys, monkeypatch, argv, points):
    calls = _count_readouts(monkeypatch)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    after_compile = calls[calls.index("compile_circuit") + 1 :]
    assert after_compile == ["detector_distribution"] * points


def test_sweep_builds_each_bound_stage_once(capsys, monkeypatch):
    builds = _count_phase_builds(monkeypatch)
    code, _, _ = run(capsys, "sweep", "hh", "--steps", "3")
    assert code == 0
    # the four `$` stages compile at 0.0; the 81 points then need only the
    # other (stage, value) pairs, each built once
    values = [k * 2 * math.pi / 3 for k in range(3)]
    assert len(builds) == 4 + 4 * len([v for v in values if v != 0.0])
    assert len(set(builds)) == len(builds)


def test_search_builds_each_dial_stage_once(capsys, monkeypatch):
    builds = _count_phase_builds(monkeypatch)
    code, _, _ = run(capsys, "chsh", "hh", "--search")
    assert code == 0
    # four stages at 0.0, then 15 more values of each of the two dial phases
    assert len(builds) <= 34


def _hh_with(tmp_path, old: str, new: str) -> Path:
    """A copy of ``hh_fermion.cdl`` with the text ``old`` replaced by ``new``."""
    source = (EXAMPLES / "hh_fermion.cdl").read_text()
    assert old in source
    f = tmp_path / "edited.cdl"
    f.write_text(source.replace(old, new))
    return f


def _state(path: Path, params=None):
    return execute(compiler.compile_circuit(parse_source(path.read_text())), params)


class TestParamRecords:
    """A ``--json`` record's phases are the whole binding the circuit ran at."""

    THETA = "phase D $phiD\n", "phase D $phiD\nphase D $theta\n"

    def test_table_records_param_bindings(self, capsys, tmp_path):
        f = _hh_with(tmp_path, *self.THETA)
        plain = run_json(capsys, "table", str(f), "--param", "theta=0")
        bound = run_json(capsys, "table", str(f), "--param", "theta=1.3", "--phase-l=0.2")
        assert plain["phases"] == {"phiL": 0.0, "phiD": 0.0, "phiR": 0.0, "phiU": 0.0, "theta": 0.0}
        assert bound["phases"] == {"phiL": 0.2, "phiD": 0.0, "phiR": 0.0, "phiU": 0.0, "theta": 1.3}
        assert bound["table"]["cells"] != pytest.approx(plain["table"]["cells"], abs=1e-3)

    def test_chsh_records_param_bindings(self, capsys, tmp_path):
        f = _hh_with(tmp_path, *self.THETA)
        assert run_json(capsys, "chsh", str(f))["phases"] is None
        bound = run_json(capsys, "chsh", str(f), "--param", "theta=1.3", "--param", "theta=0.5")
        assert bound["phases"] == {"theta": 0.5}  # the last binding of a name wins, as it runs

    def test_failing_compile_is_reported_before_an_undeclared_param(self, capsys, tmp_path):
        f = _hh_with(tmp_path, "hbs R D R D", "hbs R R R D")
        code, out, err = run(capsys, "table", str(f), "--param", "typo=1")
        assert code == 2
        assert out == ""
        assert "splitter ports must differ" in err and "line 10, col 5" in err
        assert "typo" not in err


class TestParamTable:
    def test_lists_each_named_phase(self):
        compiled = compiler.compile_circuit(parse_source((EXAMPLES / "hh_fermion.cdl").read_text()))
        assert compiled.params == ((2, "phiL", "L"), (3, "phiD", "D"), (4, "phiR", "R"), (5, "phiU", "U"))

    def test_equal_bindings_at_one_port_build_one_stage(self, monkeypatch, tmp_path):
        builds = _count_phase_builds(monkeypatch)
        f = _hh_with(tmp_path, "phase D $phiD\n", "phase D $a\nphase D $b\n")
        state = _state(f, {"a": 0.7, "b": 0.7})
        assert builds.count(("D", 0.0)) == builds.count(("D", 0.7)) == 1
        literal = _hh_with(tmp_path, "phase D $phiD\n", "phase D 0.7\nphase D 0.7\n")
        assert state.terms == _state(literal).terms

    def test_one_name_at_two_ports_binds_both(self, tmp_path):
        f = _hh_with(tmp_path, "phase R $phiR\n", "phase R $phiL\n")
        compiled = compiler.compile_circuit(parse_source(f.read_text()))
        assert [(name, port) for _, name, port in compiled.params if name == "phiL"] == [
            ("phiL", "L"),
            ("phiL", "R"),
        ]
        literal = _hh_with(tmp_path, "phase R $phiR\n", "phase R 0.9\n")
        assert execute(compiled, {"phiL": 0.9}).terms == _state(literal, {"phiL": 0.9}).terms
        assert execute(compiled, {"phiL": 0.9}).terms != execute(compiled, {}).terms


# every option string and positional of each subcommand; a new or removed
# knob must show up here as a test diff
OPTIONS = {
    None: {"-h", "--help", "--version"},
    "table": {"--phase-l", "--phase-d", "--phase-r", "--phase-u", "--param", "circuit"},
    "chsh": {"--param", "--dials", "--search", "circuit"},
    "sweep": {"--steps", "--out", "circuit"},
    "signal": {"--dofs", "--copies", "--mc"},
    "cascade": {"--dofs", "--state"},
    "check": {"file"},
}


def test_option_surface_is_pinned():
    def surface(parser):
        return {
            s for a in parser._actions for s in a.option_strings or [a.dest] if s != "command"
        }

    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if a.dest == "command"]
    common = {"-h", "--help", "--json", "--seed", "--tolerance"}
    circuit = {"--stats", "--kind"}
    got = {None: surface(parser), **{name: surface(p) for name, p in sub.choices.items()}}
    want = {
        name: opts if name is None else opts | common | (circuit if "circuit" in opts else set())
        for name, opts in OPTIONS.items()
    }
    assert got == want


SAME_SIDE = """\
internal down up
external L D R U
statistics fermion
particle down D
particle down L
measure A external bin D = D bin L = L
measure B external bin R = R bin U = U
"""


@pytest.mark.parametrize("command", [["chsh"], ["sweep", "--steps", "1"]])
def test_no_coincidences_to_correlate(capsys, tmp_path, command):
    f = tmp_path / "same_side.cdl"
    f.write_text(SAME_SIDE)
    code, out, err = run(capsys, command[0], str(f), *command[1:])
    assert code == 2
    assert out == ""
    assert "coincidence cells are zero" in err


class TestSweep:
    HEADER = "phiL,phiD,phiR,phiU,kind,p00,p01,p10,p11,E"

    def test_header_and_row_count(self, capsys):
        code, out, _ = run(capsys, "sweep", "hh", "--steps", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == self.HEADER
        assert len(lines) == 1 + 2**4

    def test_empty_grid_is_header_only(self, capsys):
        code, out, _ = run(capsys, "sweep", "hh", "--steps", "0")
        assert code == 0
        assert out == self.HEADER + "\n"

    def test_single_point_matches_table_command(self, capsys):
        rec = run_json(capsys, "table", "hh")
        code, out, _ = run(capsys, "sweep", "hh", "--steps", "1")
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert [float(x) for x in row[5:9]] == pytest.approx(
            rec["table"]["cells"], abs=1e-15
        )
        assert float(row[9]) == pytest.approx(rec["E"], abs=1e-15)

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "hh", "--steps", "1", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith(self.HEADER)

    def test_unwritable_path(self, capsys):
        code, _, err = run(
            capsys, "sweep", "hh", "--steps", "1", "--out", "/nonexistent-dir/x.csv"
        )
        assert code == 4

    def test_file_circuit_matches_its_name(self, capsys):
        code, named, _ = run(capsys, "sweep", "swap", "--steps", "2")
        assert code == 0
        code, from_file, _ = run(capsys, "sweep", str(EXAMPLES / "swap.cdl"), "--steps", "2")
        assert code == 0
        assert from_file == named

    def test_header_follows_the_table_shape(self, capsys, tmp_path):
        f = tmp_path / "one_bob_bin.cdl"
        src = (EXAMPLES / "hh_fermion.cdl").read_text()
        f.write_text(src.replace("bin R = R bin U = U", "bin R = R"))
        code, out, _ = run(capsys, "sweep", str(f), "--steps", "1")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "phiL,phiD,phiR,phiU,kind,p00,p10,E"
        assert row == "0,0,0,0,path-path,0.25,0,1"

    def test_file_without_measures(self, capsys):
        code, _, err = run(capsys, "sweep", str(EXAMPLES / "cascade2.cdl"))
        assert code == 2
        assert "both parties" in err

    def test_labels_outside_the_sign_map(self, capsys):
        code, out, err = run(capsys, "sweep", str(EXAMPLES / "wiring.cdl"), "--steps", "1")
        assert code == 2
        assert out == ""
        assert "sign map" in err

    def test_json_is_an_input_error(self, capsys):
        code, out, err = run(capsys, "sweep", "hh", "--steps", "1", "--json")
        assert (code, out) == (2, "")
        assert "--json is not supported" in err

    def test_steps_past_the_cap_exit_before_any_run(self, capsys, monkeypatch):
        def no_run(*_):
            raise AssertionError("the circuit was loaded")

        monkeypatch.setattr(cli, "_read_tree", no_run)
        code, out, err = run(capsys, "sweep", "hh", "--steps", str(cli.MAX_SWEEP_STEPS + 1))
        assert code == 2
        assert out == ""
        assert "--steps" in err


class TestSignal:
    def test_exact_dofs(self, capsys):
        rec = run_json(capsys, "signal", "--dofs", "2")
        assert rec["values"]["exact"] == 0.75

    def test_exact_copies(self, capsys):
        rec = run_json(capsys, "signal", "--copies", "4")
        assert rec["values"]["exact"] == 0.9375

    def test_mc_estimate_is_seeded(self, capsys):
        rec1 = run_json(capsys, "signal", "--dofs", "2", "--mc", "20000", "--seed", "5")
        rec2 = run_json(capsys, "signal", "--dofs", "2", "--mc", "20000", "--seed", "5")
        assert rec1 == rec2
        assert abs(rec1["values"]["estimate"] - 0.75) < 5 * rec1["values"]["stderr"]

    def test_invalid_count(self, capsys):
        code, _, err = run(capsys, "signal", "--dofs", "0")
        assert code == 2

    @pytest.mark.parametrize("trials", ["-5", "0", "x"])
    def test_mc_needs_a_positive_trial_count(self, capsys, trials):
        code, out, err = run(capsys, "signal", "--dofs", "3", "--mc", trials)
        assert code == 2
        assert out == ""
        assert "--mc" in err

    def test_exact_for_many_dofs(self, capsys):
        rec = run_json(capsys, "signal", "--dofs", "64")
        assert rec["values"]["exact"] == 1.0

    def test_mc_past_the_int64_draw(self, capsys):
        code, out, err = run(capsys, "signal", "--dofs", "64", "--mc", "10")
        assert code == 2
        assert out == ""
        assert "at most 62" in err

    @pytest.mark.parametrize(
        "variant, count, trials",
        [
            ("--copies", "8", MAX_MC_DRAWS // 8 + 1),
            ("--dofs", "3", MAX_MC_DRAWS + 1),
        ],
    )
    def test_mc_past_the_draw_cap_exits_before_any_draw(
        self, capsys, monkeypatch, variant, count, trials
    ):
        def no_rng(*_):
            raise AssertionError("the generator was created")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        code, out, err = run(capsys, "signal", variant, count, "--mc", str(trials))
        assert code == 2
        assert out == ""
        assert "cap" in err

    def test_mc_negative_seed_names_the_seed(self, capsys):
        code, out, err = run(capsys, "signal", "--dofs", "2", "--mc", "10", "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "seed" in err and "-1" in err

    def test_requires_exactly_one_variant(self, capsys):
        assert main(["signal"]) == 2
        assert main(["signal", "--dofs", "2", "--copies", "2"]) == 2


class TestCascade:
    def test_z_clones_hit_first_detector(self, capsys):
        rec = run_json(capsys, "cascade", "--dofs", "2", "--state", "z0")
        assert rec["values"]["distribution"] == {"1": pytest.approx(1.0)}

    def test_x_three_dofs_is_uniform(self, capsys):
        rec = run_json(capsys, "cascade", "--dofs", "3", "--state", "x+")
        dist = rec["values"]["distribution"]
        assert len(dist) == 8
        assert dist["1"] + dist["8"] == pytest.approx(0.25, abs=1e-12)

    def test_bad_count(self, capsys):
        code, _, _ = run(capsys, "cascade", "--dofs", "0")
        assert code == 2

    def test_dofs_past_the_cap_exit_before_any_work(self, capsys, monkeypatch):
        def no_cascade(*_):
            raise AssertionError("the cascade was built")

        monkeypatch.setattr(cli, "sorter_cascade", no_cascade)
        code, out, err = run(capsys, "cascade", "--dofs", str(cli.MAX_CASCADE_DOFS + 1))
        assert code == 2
        assert out == ""
        assert "--dofs" in err


class TestCheck:
    def test_bundled_swap_is_ok(self, capsys):
        code, out, _ = run(capsys, "check", str(EXAMPLES / "swap.cdl"))
        assert code == 0
        assert out.startswith("ok: 2 particles, 8 elements, 2 measurements")

    def test_json_counts(self, capsys):
        rec = run_json(capsys, "check", str(EXAMPLES / "hh_boson.cdl"))
        assert rec["values"] == {"particles": 2, "elements": 8, "measurements": 2}

    def test_undeclared_label(self, capsys, tmp_path):
        f = tmp_path / "bad.cdl"
        f.write_text("internal d\nexternal a\nstatistics boson\nparticle d z\n")
        code, _, err = run(capsys, "check", str(f))
        assert code == 2
        assert "line 4, col 12" in err

    @pytest.mark.parametrize("command", ["check", "table"])
    def test_element_error_has_a_position(self, capsys, tmp_path, command):
        f = tmp_path / "three_internals.cdl"
        f.write_text(
            "internal a b c\nexternal L R\nstatistics boson\nparticle a L\nhbs L R L R\n"
        )
        code, out, err = run(capsys, command, str(f))
        assert code == 2
        assert "exactly 2 internal labels" in out + err
        assert "line 5, col 5" in out + err

    def test_empty_file(self, capsys, tmp_path):
        f = tmp_path / "empty.cdl"
        f.write_text("")
        code, _, err = run(capsys, "check", str(f))
        assert code == 2
        assert "missing statistics declaration" in err

    @pytest.mark.parametrize("command", ["table", "chsh", "sweep", "check"])
    def test_non_utf8_file_is_an_input_error(self, capsys, tmp_path, command):
        f = tmp_path / "utf16.cdl"
        f.write_bytes(b"\xff\xfe\x00")
        code, out, err = run(capsys, command, str(f))
        assert code == 2
        assert out == ""
        assert err == f"error: {f}: not UTF-8 text (invalid start byte at byte 0)\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/no/such/file.cdl")
        assert code == 4


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

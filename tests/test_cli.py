"""End-to-end tests of the command line, driven through main()."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from fockflow import cli
from fockflow.algebra import StateVector
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

    @pytest.mark.parametrize("circuit", ["hh", str(EXAMPLES / "swap.cdl")])
    def test_norm_drift_is_a_numeric_failure(self, capsys, monkeypatch, circuit):
        execute = cli.execute

        def leaky(compiled):
            state = execute(compiled)
            terms = {m: 1.01 * a for m, a in state.terms.items()}
            return StateVector(state.statistics, terms)

        monkeypatch.setattr(cli, "execute", leaky)
        code, out, err = run(capsys, "table", circuit)
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
        code, out, _ = run(capsys, "check", str(f))
        assert code == 2
        assert "line 4, col 12" in out

    def test_empty_file(self, capsys, tmp_path):
        f = tmp_path / "empty.cdl"
        f.write_text("")
        code, out, _ = run(capsys, "check", str(f))
        assert code == 2
        assert "missing statistics declaration" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/no/such/file.cdl")
        assert code == 4


class TestTopLevel:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

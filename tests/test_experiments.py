"""Unit tests for the two-particle interferometers and the decoding bounds."""

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest

from fockflow.algebra import ModeBasis, Statistics, create, detector_distribution, norm_squared
from fockflow.analysis import (
    MeasurementPartition,
    chsh_value,
    coincidence_table,
    completeness,
    correlation,
)
from fockflow.cdl import compile_circuit, execute, parse_source, rebin
from fockflow._pcg64 import Generator
from fockflow.cli import main
from fockflow.experiments import (
    MAX_MC_DRAWS,
    MAX_PURE_MC_DRAWS,
    PHASES,
    QubitState,
    RNG_ID,
    X_MINUS,
    X_PLUS,
    Z_ONE,
    Z_ZERO,
    dial_settings,
    run_circuit,
    signaling_decode_exact,
    signaling_decode_mc,
    sorter_cascade,
    _correct_numpy,
    _correct_pure,
)
from circuits import EXAMPLES, compiled, occupations, parts, readout, runner, table
from reference import canonicalize, closed_form_table, factorization_residual, party_amplitudes

SETTINGS = dict(zip(PHASES, (0.3, 1.1, 2.0, 0.7)))
TABLE_KINDS = ("path-path", "spin-spin", "spin-path", "path-spin")
GRID_9 = tuple(k * 2.0 * math.pi / 9.0 for k in range(9))


def swap_source(statistics: str) -> str:
    """``swap.cdl`` with its ``statistics boson`` line replaced."""
    source = (EXAMPLES / "swap.cdl").read_text()
    return source.replace("statistics boson", f"statistics {statistics}")


class TestCircuitStates:
    def test_final_state_is_normalized(self):
        for stats in Statistics:
            run = run_circuit("hyperhybrid", stats, SETTINGS)
            assert norm_squared(run.final_state) == pytest.approx(1.0, abs=1e-12)

    def test_term_counts(self):
        # expanding the product of two four-term brackets: fermion loses the
        # two doubly-occupied products and four more cancel pairwise
        f = run_circuit("hyperhybrid", Statistics.FERMION, SETTINGS)
        b = run_circuit("hyperhybrid", Statistics.BOSON, SETTINGS)
        d = run_circuit("hyperhybrid", Statistics.DISTINGUISHABLE, SETTINGS)
        assert len(f.final_state.terms) == 6
        assert len(b.final_state.terms) == 8
        assert len(d.final_state.terms) == 16

    def test_fermion_amplitude_closed_form(self):
        # the (up D)(up U) coefficient of the expanded product
        s = SETTINGS
        run = run_circuit("hyperhybrid", Statistics.FERMION, s)
        expected = (
            np.exp(1j * (s["phiR"] + s["phiL"])) - np.exp(1j * (s["phiD"] + s["phiU"]))
        ) / 4
        _, outcome = canonicalize(
            [run.basis.mode("up", "D"), run.basis.mode("up", "U")], Statistics.FERMION
        )
        got = detector_distribution(run.final_state)[0].get(outcome.pattern, 0.0)
        assert got == pytest.approx(abs(expected) ** 2, abs=1e-12)

    def test_completeness(self):
        for stats in Statistics:
            run = run_circuit("hyperhybrid", stats, SETTINGS)
            probs = detector_distribution(run.final_state)[0]
            assert completeness(probs) == pytest.approx(1.0, abs=1e-12)

    def test_swap_requires_bosons(self):
        with pytest.raises(ValueError, match="boson"):
            run_circuit("swap", Statistics.FERMION, SETTINGS)

    def test_unknown_circuit(self):
        with pytest.raises(ValueError):
            run_circuit("mach-zehnder", Statistics.BOSON, SETTINGS)


class TestTablesAgainstClosedForm:
    @pytest.mark.parametrize("kind", TABLE_KINDS)
    @pytest.mark.parametrize("stats", [Statistics.FERMION, Statistics.BOSON])
    def test_interferometer_matches_closed_form(self, stats, kind):
        t = table(compiled(f"hh_{stats.value}"), kind, SETTINGS)
        ref = closed_form_table(kind, stats, SETTINGS)
        assert np.allclose(t.probs, ref.probs, atol=1e-12)
        assert t.row_labels == ref.row_labels and t.col_labels == ref.col_labels

    def test_fermion_path_table_at_zero(self):
        t = table(compiled("hh_fermion"), "path-path", {})
        assert np.allclose(t.probs, [[0.25, 0.0], [0.0, 0.25]], atol=1e-12)

    def test_boson_path_table_at_zero(self):
        t = table(compiled("hh_boson"), "path-path", {})
        assert np.allclose(t.probs, [[0.0, 0.25], [0.25, 0.0]], atol=1e-12)

    def test_coincidence_mass_is_half(self):
        for stats in (Statistics.FERMION, Statistics.BOSON):
            t = table(compiled(f"hh_{stats.value}"), "path-path", SETTINGS)
            assert t.total() == pytest.approx(0.5, abs=1e-12)

    def test_distinguishable_cells_flat(self):
        for kind in TABLE_KINDS:
            t = table(compiled("hh_distinguishable"), kind, SETTINGS)
            assert np.allclose(t.probs, 0.125, atol=1e-12)
            assert correlation(t) == pytest.approx(0.0, abs=1e-12)

    def test_correlation_follows_cosine_of_aggregate(self):
        for s in (SETTINGS, {"phiD": 2.2}, {"phiU": 0.4, "phiR": 1.9}):
            t = table(compiled("hh_fermion"), "path-path", s)
            phi_l, phi_d, phi_r, phi_u = (s.get(k, 0.0) for k in PHASES)
            aggregate = (phi_d - phi_l - phi_r + phi_u) / 2.0
            assert correlation(t) == pytest.approx(math.cos(2 * aggregate), abs=1e-12)


class TestChshOnCircuits:
    QUAD = (0.0, math.pi, math.pi / 4, -math.pi / 4)

    def test_dial_settings_mapping(self):
        assert dial_settings(1.2, 0.5) == {"phiL": 0.0, "phiD": 0.6, "phiR": 0.5, "phiU": 0.0}

    def test_dialed_correlation(self):
        t = runner("hh_fermion", "path-path")(1.0, 0.25)
        assert correlation(t) == pytest.approx(math.cos(0.5 - 0.25), abs=1e-12)

    @pytest.mark.parametrize(
        "name,stats,kind",
        [
            ("hyperhybrid", Statistics.FERMION, "path-path"),
            ("hyperhybrid", Statistics.BOSON, "path-path"),
            ("swap", Statistics.BOSON, "spin-path"),
        ],
    )
    def test_tsirelson_at_standard_quadruple(self, name, stats, kind):
        dialed = runner("swap" if name == "swap" else f"hh_{stats.value}", kind)
        assert chsh_value(dialed, self.QUAD) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_distinguishable_never_exceeds_two(self):
        dialed = runner("hh_distinguishable", "path-path")
        assert chsh_value(dialed, self.QUAD) == pytest.approx(0.0, abs=1e-12)


class TestEntanglementOfTheState:
    """The paper's claim read from the post-selected state, not from a table.

    Each species assignment of one particle per party gives a coefficient
    matrix M[Alice's slot, Bob's slot] over both parties' full 4 x 4 slot
    space; rho = sum_c vec(M_c) vec(M_c)^dag / p, where p is the
    coincidence mass.  Reducing to one degree of freedom per party would
    read every file as separable, because the dials act before the last
    splitters.
    """

    POINTS = [{}, dict(zip(PHASES, (0.3, 1.1, -0.4, 2.0)))]
    SAME = ["hh_boson", "hh_fermion", "swap"]

    @staticmethod
    def components(name: str, phases: dict) -> list:
        circuit = compiled(name)
        part_a, part_b = circuit.partitions["A"], circuit.partitions["B"]
        rows, cols = sorted(part_a.slots), sorted(part_b.slots)
        out = []
        for amps in party_amplitudes(execute(circuit, phases), part_a, part_b).values():
            m = np.zeros((len(rows), len(cols)), dtype=complex)
            for (a, b), amp in amps.items():
                m[rows.index(a), cols.index(b)] = amp
            out.append(m)
        return out

    @staticmethod
    def negativity(ms: list) -> float:
        """The summed magnitude of the negative eigenvalues of rho's partial transpose."""
        p = sum(np.vdot(m, m).real for m in ms)
        rho = sum(np.outer(m.ravel(), m.ravel().conj()) for m in ms) / p
        n_a, n_b = ms[0].shape
        pt = rho.reshape(n_a, n_b, n_a, n_b).transpose(0, 3, 2, 1).reshape(n_a * n_b, n_a * n_b)
        return -sum(e for e in np.linalg.eigvalsh(pt) if e < 0)

    @pytest.mark.parametrize("stats", [Statistics.FERMION, Statistics.BOSON])
    def test_amplitudes_are_read_with_alice_first(self, stats):
        # Bob's port R comes first in canonical order, so a_L a_R is stored as -a_R a_L for fermions
        basis = ModeBasis(internals=("down",), externals=("R", "L"))
        alice = MeasurementPartition("A", "external", (("L", frozenset({(1, 0)})),))
        bob = MeasurementPartition("B", "external", (("R", frozenset({(0, 0)})),))
        state = create(basis, stats, [1, 0])
        assert party_amplitudes(state, alice, bob) == {(0, 0): {((1, 0), (0, 0)): 1.0}}

    @pytest.mark.parametrize("phases", POINTS, ids=["zero", "tilted"])
    @pytest.mark.parametrize("name", [*SAME, "hh_distinguishable"])
    def test_coincidence_mass_is_one_half(self, name, phases):
        ms = self.components(name, phases)
        assert all(m.shape == (4, 4) for m in ms)
        assert sum(np.vdot(m, m).real for m in ms) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("phases", POINTS, ids=["zero", "tilted"])
    @pytest.mark.parametrize("name", SAME)
    def test_indistinguishable_particles_are_maximally_entangled(self, name, phases):
        (m,) = self.components(name, phases)
        schmidt = np.linalg.svd(m / math.sqrt(0.5), compute_uv=False)
        assert schmidt == pytest.approx([math.sqrt(0.5)] * 2 + [0.0] * 2, abs=1e-12)
        assert self.negativity([m]) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("phases", POINTS, ids=["zero", "tilted"])
    def test_distinguishable_particles_are_a_separable_mixture(self, phases):
        ms = self.components("hh_distinguishable", phases)
        assert len(ms) == 2
        for m in ms:
            assert np.linalg.svd(m, compute_uv=False)[1:] == pytest.approx([0.0] * 3, abs=1e-12)
        assert self.negativity(ms) == pytest.approx(0.0, abs=1e-12)

    @staticmethod
    def searched_chsh(capsys, name: str) -> float:
        assert main(["chsh", str(EXAMPLES / f"{name}.cdl"), "--search", "--json"]) == 0
        return json.loads(capsys.readouterr().out)["chsh"]

    @pytest.mark.parametrize("name", SAME)
    def test_chsh_search_reaches_gisins_bound(self, capsys, name):
        # a pure state of Schmidt rank <= 2 has CHSH <= 2 sqrt(1 + 4 l1^2 l2^2)
        # (Gisin, PLA 154, 201 (1991)); the dials are local, so {} gives the coefficients
        (m,) = self.components(name, {})
        schmidt = np.linalg.svd(m / math.sqrt(0.5), compute_uv=False)
        assert schmidt[2:] == pytest.approx([0.0] * 2, abs=1e-12)
        bound = 2 * math.sqrt(1 + 4 * schmidt[0] ** 2 * schmidt[1] ** 2)
        found = self.searched_chsh(capsys, name)
        assert found <= bound + 1e-12
        assert found == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_chsh_search_stays_classical_on_a_rank_one_mixture(self, capsys):
        assert len(self.components("hh_distinguishable", {})) == 2
        assert self.searched_chsh(capsys, "hh_distinguishable") <= 2.0


class TestSwapCircuit:
    def test_table_is_boson_spin_path_pattern(self):
        t = table(compiled("swap"), "spin-path", SETTINGS)
        ref = closed_form_table(
            "spin-path", Statistics.BOSON, SETTINGS, row_labels=("H", "V")
        )
        assert np.allclose(t.probs, ref.probs, atol=1e-12)
        assert t.row_labels == ("H", "V")

    def test_flat_table_at_quarter_turn(self):
        t = table(compiled("swap"), "spin-path", {"phiR": math.pi / 2})
        assert np.allclose(t.probs, 0.125, atol=1e-12)

    def test_plain_splitter_side_factorizes(self):
        swap = compiled("swap")
        bob = occupations(swap, readout(swap, SETTINGS), "B")
        assert factorization_residual(bob) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(bob.probs, [[0.5, 0.5], [0.0, 0.0]], atol=1e-12)

    def test_hybrid_side_stays_correlated(self):
        swap = compiled("swap")
        alice = occupations(swap, readout(swap, SETTINGS), "A")
        assert factorization_residual(alice) == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(alice.probs, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)

    def test_occupations_sum_to_one_particle_per_side(self):
        hh = compiled("hh_fermion")
        probs = readout(hh, SETTINGS)
        for party in ("A", "B"):
            assert np.asarray(occupations(hh, probs, party).probs).sum() == pytest.approx(1.0, abs=1e-12)


class TestSwapUnderOtherStatistics:
    """The swap file run with its statistics line replaced, over the 9^4 grid."""

    def test_fermion_table_is_the_boson_law_with_bobs_ports_exchanged(self):
        circuit = compile_circuit(parse_source(swap_source("fermion")))
        bins = parts(circuit, "spin-path")
        worst_cell = worst_bob = worst_alice = 0.0
        for pl, pd, pr, pu in itertools.product(GRID_9, repeat=4):
            probs = readout(circuit, dict(zip(PHASES, (pl, pd, pr, pu))))
            half = (pd - pl - pr + pu) / 2.0
            c2 = 0.25 * math.cos(half) ** 2
            s2 = 0.25 * math.sin(half) ** 2
            # criterion 7's quarter-angle law with Bob's R and U columns exchanged
            want = np.array([[s2, c2], [c2, s2]])
            got = coincidence_table(probs, *bins).probs
            worst_cell = max(worst_cell, float(np.max(np.abs(got - want))))
            bob = factorization_residual(occupations(circuit, probs, "B"))
            alice = factorization_residual(occupations(circuit, probs, "A"))
            worst_bob = max(worst_bob, bob)
            worst_alice = max(worst_alice, abs(alice - 0.25))
        assert worst_cell < 1e-9
        assert worst_bob < 1e-12  # Bob's plain splitters keep his side separable
        assert worst_alice < 1e-12  # Alice's hybrid side stays correlated everywhere

    def test_distinguishable_table_is_flat(self):
        circuit = compile_circuit(parse_source(swap_source("distinguishable")))
        bins = parts(circuit, "spin-path")
        worst = 0.0
        for point in itertools.product(GRID_9, repeat=4):
            got = np.asarray(coincidence_table(readout(circuit, dict(zip(PHASES, point))), *bins).probs)
            worst = max(worst, float(np.max(np.abs(got - 0.125))))
        assert worst < 1e-12

    @pytest.mark.parametrize(
        "statistics,last_line",
        [("fermion", "CHSH 2.828427124746"), ("distinguishable", "CHSH 0.000000000000")],
    )
    def test_chsh_search_on_the_file(self, capsys, tmp_path, statistics, last_line):
        f = tmp_path / f"swap_{statistics}.cdl"
        f.write_text(swap_source(statistics))
        assert main(["chsh", str(f), "--search"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == last_line


OVERLAP_DRAWS = tuple(random.Random(20).uniform(0.0, 2.0 * math.pi) for _ in range(8))


class TestPartialDistinguishability:
    """``tests/cdl/hh_partial.cdl``: the left particle arrives early with amplitude sin(theta/2).

    Only the early parts of the two particles overlap, and the bins merge
    each port with its late copy, so the Bell correlation of the
    indistinguishable particles scales with the overlap probability:
    CHSH = 2*sqrt(2)*sin^2(theta/2) at the default dials.  Distinguishable
    particles never interfere, at any overlap.
    """

    PATH = Path(__file__).resolve().parent / "cdl" / "hh_partial.cdl"
    THETAS = (0.0, math.pi / 4, math.pi / 2, math.pi, *OVERLAP_DRAWS)

    def chsh(self, capsys, path, theta):
        assert main(["chsh", str(path), "--param", f"theta={theta!r}", "--json"]) == 0
        return json.loads(capsys.readouterr().out)["chsh"]

    def test_the_file_holds_26_statements(self):
        lines = self.PATH.read_text().splitlines()
        assert len([line for line in lines if line and not line.startswith("#")]) == 26

    @pytest.mark.parametrize("statistics", ["boson", "fermion", "distinguishable"])
    def test_chsh_follows_the_overlap(self, capsys, tmp_path, statistics):
        path = tmp_path / f"hh_partial_{statistics}.cdl"
        path.write_text(self.PATH.read_text().replace("statistics boson", f"statistics {statistics}"))
        for theta in self.THETAS:
            want = 2.0 * math.sqrt(2.0) * math.sin(theta / 2) ** 2
            if statistics == "distinguishable":
                want = 0.0
            assert abs(self.chsh(capsys, path, theta) - want) <= 1e-12, theta


class TestPartitions:
    def test_external_bins_are_ports(self):
        p = rebin(compiled("hh_fermion"), "A", "external")
        assert p.labels() == ("D", "L")
        p = rebin(compiled("hh_fermion"), "B", "external")
        assert p.labels() == ("R", "U")

    def test_internal_bins_follow_basis_order(self):
        p = rebin(compiled("swap"), "A", "internal")
        assert p.labels() == ("H", "V")

    def test_invalid_party_and_kind(self):
        with pytest.raises(ValueError):
            rebin(compiled("hh_fermion"), "A", "sideways")


class TestClonesAndCascade:
    def test_qubit_state_normalization(self):
        with pytest.raises(ValueError):
            QubitState(1.0, 1.0)
        with pytest.raises(ValueError):
            QubitState(float("nan"), 0.0)
        assert X_PLUS.born() == pytest.approx((0.5, 0.5))
        assert Z_ONE.born() == pytest.approx((0.0, 1.0))

    def test_cascade_z_clones_hit_extreme_detectors(self):
        d = sorter_cascade(Z_ZERO, 2)
        assert d[1] == pytest.approx(1.0)
        d = sorter_cascade(Z_ONE, 2)
        assert d[4] == pytest.approx(1.0)

    def test_cascade_x_two_dofs(self):
        d = sorter_cascade(X_PLUS, 2)
        assert d.get(2, 0.0) + d.get(3, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_cascade_x_three_dofs(self):
        d = sorter_cascade(X_MINUS, 3)
        assert d.get(1, 0.0) + d.get(8, 0.0) == pytest.approx(0.25, abs=1e-12)

    def test_cascade_respects_first_dof_as_most_significant(self):
        # a biased state puts its weight where the binary expansion says
        d = sorter_cascade(QubitState(0.6, 0.8), 2)
        assert d[1] == pytest.approx(0.36 * 0.36, abs=1e-12)
        assert d[4] == pytest.approx(0.64 * 0.64, abs=1e-12)
        assert sum(d.values()) == pytest.approx(1.0, abs=1e-12)

    def test_cascade_needs_a_degree_of_freedom(self):
        with pytest.raises(ValueError, match="at least one degree of freedom"):
            sorter_cascade(X_PLUS, 0)

    @pytest.mark.parametrize(
        "state",
        [
            Z_ZERO,
            Z_ONE,
            X_PLUS,
            X_MINUS,
            QubitState(math.cos(0.3), math.sin(0.3)),
            QubitState(0.6, 0.8j),
            # norm^2 is 1 + 1.6e-11: inside QubitState's 1e-9, so the cascade takes it
            QubitState(0.6, 0.80000000001),
        ],
        ids=["z0", "z1", "x+", "x-", "cos-sin-0.3", "0.6-0.8i", "0.6-0.80000000001"],
    )
    @pytest.mark.parametrize("dofs", [1, 2, 3, 5, 9])
    def test_cascade_is_the_bitwise_product(self, state, dofs):
        # detector 1 + b, b spelled first DOF first; its probability is the
        # product of the per-bit Born weights taken in that bit order
        born = state.born()
        want = {}
        for b in range(2**dofs):
            p = math.prod(born[(b >> (dofs - 1 - k)) & 1] for k in range(dofs))
            if p > 0.0:
                want[b + 1] = p
        got = sorter_cascade(state, dofs)
        assert type(got) is dict
        assert list(got.items()) == list(want.items())

    @pytest.mark.parametrize(
        "state", [Z_ZERO, Z_ONE, X_PLUS, X_MINUS, QubitState(0.6, 0.8)],
        ids=["z0", "z1", "x+", "x-", "0.6-0.8"],
    )
    @pytest.mark.parametrize("dofs", range(1, 17))
    def test_cascade_matches_the_numpy_outer_chain(self, state, dofs):
        # numpy's outer-product chain; products are correctly rounded, so the bits agree
        probs = np.ones(1)
        for _ in range(dofs):
            probs = np.outer(probs, state.born()).ravel()
        want = {k + 1: p for k, p in enumerate(probs.tolist()) if p > 0.0}
        assert list(sorter_cascade(state, dofs).items()) == list(want.items())


class Reached(Exception):
    """Raised in place of numpy's ``default_rng``: the run got as far as its draw."""


@pytest.fixture
def no_default_rng(monkeypatch):
    def reached(*_):
        raise Reached

    monkeypatch.setattr(np.random, "default_rng", reached)


class TestSignaling:
    def test_exact_dof_values(self):
        assert signaling_decode_exact(dofs=1) == pytest.approx(0.5)
        assert signaling_decode_exact(dofs=2) == 0.75
        assert signaling_decode_exact(dofs=3) == 0.875
        assert float(signaling_decode_exact(dofs=10)) == pytest.approx(1 - 2**-10)

    def test_exact_copies_values(self):
        assert signaling_decode_exact(copies=1) == 0.5
        assert signaling_decode_exact(copies=2) == 0.75
        assert float(signaling_decode_exact(copies=4)) == pytest.approx(0.9375)

    def test_exact_needs_no_enumeration_for_many_carriers(self):
        assert signaling_decode_exact(dofs=64) == 1.0
        assert signaling_decode_exact(copies=10**6) == 1.0

    def test_mc_rejects_dofs_past_the_int64_draw(self):
        assert signaling_decode_mc(dofs=62, trials=10, seed=0)[0] == 1.0
        with pytest.raises(ValueError, match="at most 62"):
            signaling_decode_mc(dofs=63, trials=10, seed=0)

    def test_mc_rejects_draws_past_the_cap(self, no_default_rng):
        # the README's example sits below the cap and gets as far as the draw
        with pytest.raises(Reached):
            signaling_decode_mc(copies=4, trials=10**6, seed=7)
        with pytest.raises(Reached):
            signaling_decode_mc(copies=5, trials=MAX_MC_DRAWS // 5, seed=7)
        with pytest.raises(ValueError, match="cap"):
            signaling_decode_mc(copies=5, trials=MAX_MC_DRAWS // 5 + 1, seed=7)
        with pytest.raises(ValueError, match="cap"):
            signaling_decode_mc(dofs=3, trials=MAX_MC_DRAWS + 1, seed=7)

    def test_mc_draws_small_runs_without_numpy(self, no_default_rng):
        signaling_decode_mc(dofs=3, trials=MAX_PURE_MC_DRAWS, seed=7)
        signaling_decode_mc(copies=4, trials=MAX_PURE_MC_DRAWS // 4, seed=7)
        with pytest.raises(Reached):
            signaling_decode_mc(dofs=3, trials=MAX_PURE_MC_DRAWS + 1, seed=7)
        with pytest.raises(Reached):
            signaling_decode_mc(copies=1, trials=MAX_PURE_MC_DRAWS + 1, seed=7)

    def test_mc_rejects_a_negative_seed(self):
        # numpy's own refusal names neither the seed nor its value
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            signaling_decode_mc(dofs=2, trials=10, seed=-1)

    def test_exactly_one_variant_required(self):
        with pytest.raises(ValueError):
            signaling_decode_exact()
        with pytest.raises(ValueError):
            signaling_decode_exact(dofs=2, copies=2)
        with pytest.raises(ValueError):
            signaling_decode_exact(dofs=0)

    def test_mc_is_seed_deterministic(self):
        a = signaling_decode_mc(dofs=2, trials=2000, seed=7)
        b = signaling_decode_mc(dofs=2, trials=2000, seed=7)
        c = signaling_decode_mc(dofs=2, trials=2000, seed=8)
        assert a == b
        assert a != c

    def test_mc_tracks_exact_value(self):
        for kwargs in ({"dofs": 2}, {"dofs": 3}, {"copies": 2}):
            exact = float(signaling_decode_exact(**kwargs))
            est, err = signaling_decode_mc(trials=200_000, seed=3, **kwargs)
            assert err > 0
            assert abs(est - exact) < 4 * err

    def test_rng_identity_string(self):
        assert "PCG64" in RNG_ID


# seeds of one, two, three and five 32-bit entropy words
SEEDS = (0, 1, 7, 2**31 - 1, 2**32 + 5, 2**64 + 3, 2**130)


class TestPurePCG64:
    """The pure-Python draws against numpy's ``default_rng``, bit for bit."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_counts_match_numpy(self, seed):
        # odd trial counts leave a buffered 32-bit word behind Alice's draws
        variants = [(d, None) for d in (1, 2, 3, 31, 32, 33, 40, 62)]
        variants += [(None, m) for m in range(1, 7)]
        wrong = [
            (trials, dofs, copies)
            for trials in (1, 2, 3, 17, 1001, 4000)
            for dofs, copies in variants
            if _correct_pure(dofs, copies, trials, seed)
            != _correct_numpy(dofs, copies, trials, seed)
        ]
        assert wrong == []

    @pytest.mark.parametrize("seed", SEEDS)
    def test_raw_outputs_match_numpy(self, seed):
        want = np.random.default_rng(seed).bit_generator.random_raw(5).tolist()
        assert Generator(seed).outputs(5) == want

    @pytest.mark.parametrize("seed", SEEDS)
    def test_draws_match_numpy(self, seed):
        # odd 32-bit sizes leave a high half kept, 64-bit draws pass it by,
        # and the next 32-bit draw starts on it
        calls = [
            (1, 7), (62, 3), (3, 1), (40, 2), (32, 4), (2, 5), (33, 1), (31, 3), (1, 0), (5, 2)
        ]
        ours, theirs = Generator(seed), np.random.default_rng(seed)
        for bits, size in calls:
            assert ours.integers(bits, size) == theirs.integers(0, 2**bits, size=size).tolist()

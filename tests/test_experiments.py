"""Unit tests for the two-particle interferometers and the decoding bounds."""

import math

import numpy as np
import pytest

from fockflow.algebra import Statistics, canonicalize, norm_squared, outcome_probability
from fockflow.analysis import (
    chsh_value,
    ChshSettings,
    closed_form_table,
    completeness,
    correlation,
    factorization_residual,
)
from fockflow.experiments import (
    MAX_MC_DRAWS,
    CloneEnsemble,
    PhaseSettings,
    QubitState,
    RNG_ID,
    X_MINUS,
    X_PLUS,
    Z_ONE,
    Z_ZERO,
    dial_runner,
    dial_settings,
    hyper_hybrid_circuit,
    partition,
    party_occupations,
    run_circuit,
    run_table,
    signaling_decode_exact,
    signaling_decode_mc,
    sorter_cascade,
    swap_circuit,
)

SETTINGS = PhaseSettings(phi_l=0.3, phi_d=1.1, phi_r=2.0, phi_u=0.7)
TABLE_KINDS = ("path-path", "spin-spin", "spin-path", "path-spin")


class TestCircuitStates:
    def test_final_state_is_normalized(self):
        for stats in Statistics:
            run = hyper_hybrid_circuit(stats, SETTINGS)
            assert norm_squared(run.final_state) == pytest.approx(1.0, abs=1e-12)

    def test_term_counts(self):
        # expanding the product of two four-term brackets: fermion loses the
        # two doubly-occupied products and four more cancel pairwise
        f = hyper_hybrid_circuit(Statistics.FERMION, SETTINGS)
        b = hyper_hybrid_circuit(Statistics.BOSON, SETTINGS)
        d = hyper_hybrid_circuit(Statistics.DISTINGUISHABLE, SETTINGS)
        assert len(f.final_state.terms) == 6
        assert len(b.final_state.terms) == 8
        assert len(d.final_state.terms) == 16

    def test_fermion_amplitude_closed_form(self):
        # the (up D)(up U) coefficient of the expanded product
        s = SETTINGS
        run = hyper_hybrid_circuit(Statistics.FERMION, s)
        expected = (
            np.exp(1j * (s.phi_r + s.phi_l)) - np.exp(1j * (s.phi_d + s.phi_u))
        ) / 4
        _, outcome = canonicalize(
            [run.basis.mode("up", "D"), run.basis.mode("up", "U")], Statistics.FERMION
        )
        got = outcome_probability(run.final_state, outcome)
        assert got == pytest.approx(abs(expected) ** 2, abs=1e-12)

    def test_completeness(self):
        for stats in Statistics:
            run = hyper_hybrid_circuit(stats, SETTINGS)
            assert completeness(run.final_state, run.basis) == pytest.approx(1.0, abs=1e-12)

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
        run = hyper_hybrid_circuit(stats, SETTINGS)
        t = run_table(run, kind)
        ref = closed_form_table(kind, stats, SETTINGS)
        assert np.allclose(t.probs, ref.probs, atol=1e-12)
        assert t.row_labels == ref.row_labels and t.col_labels == ref.col_labels

    def test_fermion_path_table_at_zero(self):
        run = hyper_hybrid_circuit(Statistics.FERMION, PhaseSettings())
        t = run_table(run, "path-path")
        assert np.allclose(t.probs, [[0.25, 0.0], [0.0, 0.25]], atol=1e-12)

    def test_boson_path_table_at_zero(self):
        run = hyper_hybrid_circuit(Statistics.BOSON, PhaseSettings())
        t = run_table(run, "path-path")
        assert np.allclose(t.probs, [[0.0, 0.25], [0.25, 0.0]], atol=1e-12)

    def test_coincidence_mass_is_half(self):
        for stats in (Statistics.FERMION, Statistics.BOSON):
            t = run_table(hyper_hybrid_circuit(stats, SETTINGS), "path-path")
            assert t.total() == pytest.approx(0.5, abs=1e-12)

    def test_distinguishable_cells_flat(self):
        run = hyper_hybrid_circuit(Statistics.DISTINGUISHABLE, SETTINGS)
        for kind in TABLE_KINDS:
            t = run_table(run, kind)
            assert np.allclose(t.probs, 0.125, atol=1e-12)
            assert correlation(t) == pytest.approx(0.0, abs=1e-12)

    def test_correlation_follows_cosine_of_aggregate(self):
        for s in (SETTINGS, PhaseSettings(phi_d=2.2), PhaseSettings(phi_u=0.4, phi_r=1.9)):
            t = run_table(hyper_hybrid_circuit(Statistics.FERMION, s), "path-path")
            assert correlation(t) == pytest.approx(math.cos(2 * s.aggregate()), abs=1e-12)


class TestChshOnCircuits:
    QUAD = ChshSettings(0.0, math.pi, math.pi / 4, -math.pi / 4)

    def test_dial_settings_mapping(self):
        s = dial_settings(1.2, 0.5)
        assert (s.phi_l, s.phi_d, s.phi_r, s.phi_u) == (0.0, 0.6, 0.5, 0.0)

    def test_dialed_correlation(self):
        runner = dial_runner("hyperhybrid", Statistics.FERMION, "path-path")
        t = runner(1.0, 0.25)
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
        runner = dial_runner(name, stats, kind)
        assert chsh_value(runner, self.QUAD) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_distinguishable_never_exceeds_two(self):
        runner = dial_runner("hyperhybrid", Statistics.DISTINGUISHABLE, "path-path")
        assert chsh_value(runner, self.QUAD) == pytest.approx(0.0, abs=1e-12)


class TestSwapCircuit:
    def test_table_is_boson_spin_path_pattern(self):
        run = swap_circuit(SETTINGS)
        t = run_table(run, "spin-path")
        ref = closed_form_table(
            "spin-path", Statistics.BOSON, SETTINGS, row_labels=("H", "V")
        )
        assert np.allclose(t.probs, ref.probs, atol=1e-12)
        assert t.row_labels == ("H", "V")

    def test_flat_table_at_quarter_turn(self):
        run = swap_circuit(PhaseSettings(phi_r=math.pi / 2))
        t = run_table(run, "spin-path")
        assert np.allclose(t.probs, 0.125, atol=1e-12)

    def test_plain_splitter_side_factorizes(self):
        run = swap_circuit(SETTINGS)
        bob = party_occupations(run, "B")
        assert factorization_residual(bob) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(bob.probs, [[0.5, 0.5], [0.0, 0.0]], atol=1e-12)

    def test_hybrid_side_stays_correlated(self):
        run = swap_circuit(SETTINGS)
        alice = party_occupations(run, "A")
        assert factorization_residual(alice) == pytest.approx(0.25, abs=1e-12)
        assert np.allclose(alice.probs, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)

    def test_occupations_sum_to_one_particle_per_side(self):
        run = hyper_hybrid_circuit(Statistics.FERMION, SETTINGS)
        for party in ("A", "B"):
            assert party_occupations(run, party).probs.sum() == pytest.approx(1.0, abs=1e-12)


class TestPartitions:
    def test_external_bins_are_ports(self):
        run = hyper_hybrid_circuit(Statistics.FERMION, SETTINGS)
        p = partition(run, "A", "external")
        assert p.labels() == ("D", "L")
        p = partition(run, "B", "external")
        assert p.labels() == ("R", "U")

    def test_internal_bins_follow_basis_order(self):
        run = swap_circuit(SETTINGS)
        p = partition(run, "A", "internal")
        assert p.labels() == ("H", "V")

    def test_invalid_party_and_kind(self):
        run = hyper_hybrid_circuit(Statistics.FERMION, SETTINGS)
        with pytest.raises(ValueError):
            partition(run, "C", "external")
        with pytest.raises(ValueError):
            partition(run, "A", "sideways")
        with pytest.raises(ValueError):
            run_table(run, "path-charge")


class TestClonesAndCascade:
    def test_qubit_state_normalization(self):
        with pytest.raises(ValueError):
            QubitState(1.0, 1.0)
        assert X_PLUS.born() == pytest.approx((0.5, 0.5))
        assert Z_ONE.born() == pytest.approx((0.0, 1.0))

    def test_cascade_z_clones_hit_extreme_detectors(self):
        d = sorter_cascade(CloneEnsemble(2, Z_ZERO))
        assert d.probs[1] == pytest.approx(1.0)
        d = sorter_cascade(CloneEnsemble(2, Z_ONE))
        assert d.probs[4] == pytest.approx(1.0)

    def test_cascade_x_two_dofs(self):
        d = sorter_cascade(CloneEnsemble(2, X_PLUS))
        assert d.mass([2, 3]) == pytest.approx(0.5, abs=1e-12)

    def test_cascade_x_three_dofs(self):
        d = sorter_cascade(CloneEnsemble(3, X_MINUS))
        assert d.mass([1, 8]) == pytest.approx(0.25, abs=1e-12)

    def test_cascade_respects_first_dof_as_most_significant(self):
        # a biased state puts its weight where the binary expansion says
        d = sorter_cascade(CloneEnsemble(2, QubitState(0.6, 0.8)))
        assert d.probs[1] == pytest.approx(0.36 * 0.36, abs=1e-12)
        assert d.probs[4] == pytest.approx(0.64 * 0.64, abs=1e-12)
        assert sum(d.probs.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "state",
        [Z_ZERO, Z_ONE, X_PLUS, X_MINUS, QubitState(math.cos(0.3), math.sin(0.3)), QubitState(0.6, 0.8j)],
        ids=["z0", "z1", "x+", "x-", "cos-sin-0.3", "0.6-0.8i"],
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
        got = sorter_cascade(CloneEnsemble(dofs, state)).probs
        assert list(got.items()) == list(want.items())


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

    def test_mc_rejects_draws_past_the_cap(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*_):
            raise Reached

        monkeypatch.setattr(np.random, "default_rng", reached)
        # the README's example sits below the cap and gets as far as the draw
        with pytest.raises(Reached):
            signaling_decode_mc(copies=4, trials=10**6, seed=7)
        with pytest.raises(Reached):
            signaling_decode_mc(copies=5, trials=MAX_MC_DRAWS // 5, seed=7)
        with pytest.raises(ValueError, match="cap"):
            signaling_decode_mc(copies=5, trials=MAX_MC_DRAWS // 5 + 1, seed=7)
        with pytest.raises(ValueError, match="cap"):
            signaling_decode_mc(dofs=3, trials=MAX_MC_DRAWS + 1, seed=7)

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

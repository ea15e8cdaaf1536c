"""Unit tests for the optical-element mode transforms."""

import math

import numpy as np
import pytest

from fockflow.algebra import ModeBasis, Statistics, UnknownMode, apply_creation, substitute, vacuum
from fockflow.elements import (
    COLUMN_DROP_TOLERANCE,
    BasisMismatch,
    DuplicatePort,
    IncompleteRouting,
    InternalSetNotBinary,
    ModeTransform,
    NotBijective,
    beam_splitter,
    compose,
    dof_sorter,
    exchange_wiring,
    hybrid_beam_splitter,
    identity,
    phase_shifter,
    verify_unitary,
)

BASIS = ModeBasis(internals=("down", "up"), externals=("L", "D", "R", "U"))


def constructors():
    return [
        identity(BASIS),
        phase_shifter(BASIS, "D", 0.37),
        beam_splitter(BASIS, "L", "U"),
        beam_splitter(BASIS, "L", "U", "R", "D"),
        hybrid_beam_splitter(BASIS, "R", "D"),
        dof_sorter(BASIS, {"down": "L", "up": "R"}, port="L"),
        exchange_wiring(BASIS, {"L": "R"}),
    ]


class TestUnitarity:
    @pytest.mark.parametrize("t", constructors(), ids=lambda t: t.name or "id")
    def test_every_constructor_is_unitary(self, t):
        assert verify_unitary(t, 1e-12), f"{t.name} failed unitarity"

    def test_broken_matrix_detected(self):
        mat = np.eye(len(BASIS), dtype=complex)
        mat[3, :] = 0.0
        assert not verify_unitary(ModeTransform(BASIS, mat), 1e-12)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_unitary(identity(BASIS), 0.0)


class TestPhaseShifter:
    def test_zero_phase_is_identity(self):
        t = phase_shifter(BASIS, "L", 0.0)
        assert np.allclose(t.matrix, np.eye(len(BASIS)))

    def test_pi_phase_negates_only_that_port(self):
        t = phase_shifter(BASIS, "L", math.pi)
        for k, mode in enumerate(BASIS.modes):
            want = -1.0 if mode.external.name == "L" else 1.0
            assert t.matrix[k, k] == pytest.approx(want)

    def test_unknown_port(self):
        with pytest.raises(UnknownMode):
            phase_shifter(BASIS, "X", 1.0)


class TestSplitters:
    def test_bs_amplitudes(self):
        t = beam_splitter(BASIS, "L", "U")
        root2 = math.sqrt(2)
        a_in = BASIS.index_of(BASIS.mode("down", "L"))
        b_in = BASIS.index_of(BASIS.mode("down", "U"))
        assert t.matrix[a_in, a_in] == pytest.approx(1 / root2)
        assert t.matrix[b_in, a_in] == pytest.approx(1j / root2)
        assert t.matrix[a_in, b_in] == pytest.approx(1j / root2)
        assert t.matrix[b_in, b_in] == pytest.approx(1 / root2)
        # internal label untouched: no down->up entries
        up_out = BASIS.index_of(BASIS.mode("up", "U"))
        assert t.matrix[up_out, a_in] == 0

    def test_hbs_flips_on_reflection_only(self):
        t = hybrid_beam_splitter(BASIS, "R", "D")
        root2 = math.sqrt(2)
        col = BASIS.index_of(BASIS.mode("down", "R"))
        keep = BASIS.index_of(BASIS.mode("down", "R"))
        flip = BASIS.index_of(BASIS.mode("up", "D"))
        assert t.matrix[keep, col] == pytest.approx(1 / root2)
        assert t.matrix[flip, col] == pytest.approx(1j / root2)
        assert t.matrix[BASIS.index_of(BASIS.mode("down", "D")), col] == 0

    def test_hbs_flip_symmetric_in_labels(self):
        t = hybrid_beam_splitter(BASIS, "R", "D")
        col = BASIS.index_of(BASIS.mode("up", "R"))
        assert t.matrix[BASIS.index_of(BASIS.mode("up", "R")), col] == pytest.approx(1 / math.sqrt(2))
        assert t.matrix[BASIS.index_of(BASIS.mode("down", "D")), col] == pytest.approx(1j / math.sqrt(2))

    def test_double_application_is_phase_times_permutation(self):
        for t in (beam_splitter(BASIS, "L", "U"), hybrid_beam_splitter(BASIS, "L", "U")):
            twice = np.abs(t.matrix @ t.matrix)
            assert np.all((twice < 1e-12) | (np.abs(twice - 1) < 1e-12)), t.name
            assert np.allclose(twice.sum(axis=0), 1) and np.allclose(twice.sum(axis=1), 1)

    def test_duplicate_ports_rejected(self):
        with pytest.raises(DuplicatePort):
            beam_splitter(BASIS, "L", "L")
        with pytest.raises(DuplicatePort):
            beam_splitter(BASIS, "L", "U", "R", "R")
        # output pair half-overlapping the input pair is ambiguous
        with pytest.raises(DuplicatePort):
            beam_splitter(BASIS, "L", "U", "L", "R")

    def test_crossed_output_ports_allowed(self):
        t = beam_splitter(BASIS, "L", "U", "U", "L")
        assert verify_unitary(t, 1e-12)

    def test_hbs_needs_binary_internal(self):
        three = ModeBasis(internals=("a", "b", "c"), externals=("L", "R"))
        with pytest.raises(InternalSetNotBinary):
            hybrid_beam_splitter(three, "L", "R")

    def test_disjoint_output_ports_unitary(self):
        t = hybrid_beam_splitter(BASIS, "L", "U", "R", "D")
        assert verify_unitary(t, 1e-12)
        col = BASIS.index_of(BASIS.mode("down", "L"))
        assert t.matrix[BASIS.index_of(BASIS.mode("down", "R")), col] == pytest.approx(1 / math.sqrt(2))
        assert t.matrix[BASIS.index_of(BASIS.mode("up", "D")), col] == pytest.approx(1j / math.sqrt(2))


def assert_permutation(t):
    mag = np.abs(t.matrix)
    assert np.all((mag < 1e-12) | (np.abs(mag - 1) < 1e-12)), f"{t.name}: entries not 0/1"
    assert np.allclose(mag.sum(axis=0), 1), f"{t.name}: column sums"
    assert np.allclose(mag.sum(axis=1), 1), f"{t.name}: row sums"


class TestSorters:
    def test_internal_sorter_routes_by_label(self):
        t = dof_sorter(BASIS, {"down": "L", "up": "R"}, port="L")
        assert_permutation(t)
        # a down particle at L stays, an up particle at L moves to R
        down_l = BASIS.index_of(BASIS.mode("down", "L"))
        up_l = BASIS.index_of(BASIS.mode("up", "L"))
        up_r = BASIS.index_of(BASIS.mode("up", "R"))
        assert t.matrix[down_l, down_l] == 1
        assert t.matrix[up_r, up_l] == 1
        assert t.matrix[up_l, up_l] == 0

    def test_internal_sorter_is_involution(self):
        t = dof_sorter(BASIS, {"down": "D", "up": "U"}, port="L")
        assert np.allclose(t.matrix @ t.matrix, np.eye(len(BASIS)))

    def test_sorter_preserves_sorted_dof_distribution(self):
        # the sorted DOF itself is never altered, only relocated: the
        # internal-label marginal of any state is invariant
        st = vacuum(Statistics.BOSON)
        st = apply_creation(st, BASIS.mode("down", "L"))
        st = substitute(st, hybrid_beam_splitter(BASIS, "L", "U"))
        t = dof_sorter(BASIS, {"down": "D", "up": "R"}, port="L")

        def internal_marginal(state):
            out = {}
            for m, a in state.terms.items():
                for mode, occ in m.entries:
                    out[mode.internal.name] = out.get(mode.internal.name, 0.0) + abs(a) ** 2 * occ
            return out

        before = internal_marginal(st)
        after = internal_marginal(substitute(st, t))
        assert before == pytest.approx(after)

    def test_incomplete_routing(self):
        with pytest.raises(IncompleteRouting):
            dof_sorter(BASIS, {"down": "L"}, port="L")

    def test_colliding_targets_rejected(self):
        with pytest.raises(NotBijective):
            dof_sorter(BASIS, {"down": "R", "up": "R"}, port="L")


class TestExchange:
    def test_one_way_map_completes_to_swap(self):
        t = exchange_wiring(BASIS, {"L": "R"})
        assert_permutation(t)
        l, r = BASIS.index_of(BASIS.mode("down", "L")), BASIS.index_of(BASIS.mode("down", "R"))
        assert t.matrix[r, l] == 1 and t.matrix[l, r] == 1

    def test_identity_relabel(self):
        t = exchange_wiring(BASIS, {})
        assert np.allclose(t.matrix, np.eye(len(BASIS)))

    def test_relabel_then_inverse_is_identity(self):
        fwd = exchange_wiring(BASIS, {"L": "D", "D": "R", "R": "L"})
        inv = exchange_wiring(BASIS, {"D": "L", "R": "D", "L": "R"})
        assert np.allclose(inv.matrix @ fwd.matrix, np.eye(len(BASIS)))

    def test_chain_closes_into_cycle(self):
        t = exchange_wiring(BASIS, {"L": "D", "D": "R"})
        assert_permutation(t)
        r = BASIS.index_of(BASIS.mode("down", "R"))
        l = BASIS.index_of(BASIS.mode("down", "L"))
        assert t.matrix[l, r] == 1, "chain tail must route back to the head"

    def test_repeated_targets_rejected(self):
        with pytest.raises(NotBijective):
            exchange_wiring(BASIS, {"L": "R", "D": "R"})

    def test_unknown_label_rejected(self):
        with pytest.raises(UnknownMode):
            exchange_wiring(BASIS, {"L": "X"})


class TestCompose:
    def test_empty_compose_needs_basis(self):
        with pytest.raises(ValueError):
            compose([])
        t = compose([], basis=BASIS)
        assert np.allclose(t.matrix, np.eye(len(BASIS)))

    def test_single_stage_unchanged(self):
        t = hybrid_beam_splitter(BASIS, "R", "D")
        assert np.allclose(compose([t]).matrix, t.matrix)

    def test_application_order(self):
        # phase after splitter differs from splitter after phase
        a = phase_shifter(BASIS, "U", 1.0)
        b = beam_splitter(BASIS, "L", "U")
        ab = compose([a, b]).matrix  # a acts first
        assert np.allclose(ab, b.matrix @ a.matrix)

    def test_associativity(self):
        a = hybrid_beam_splitter(BASIS, "R", "D")
        b = phase_shifter(BASIS, "D", 0.7)
        c = beam_splitter(BASIS, "L", "U")
        left = compose([compose([a, b]), c]).matrix
        right = compose([a, compose([b, c])]).matrix
        assert np.max(np.abs(left - right)) < 1e-12

    def test_conflicting_label_order_rejected(self):
        a = identity(ModeBasis(internals=("down", "up"), externals=("L", "R")))
        b = identity(ModeBasis(internals=("down", "up"), externals=("R", "L")))
        with pytest.raises(BasisMismatch):
            compose([a, b])

    def test_stage_over_another_basis_rejected(self):
        small = ModeBasis(internals=("down", "up"), externals=("L", "D"))
        with pytest.raises(BasisMismatch):
            compose([identity(BASIS), beam_splitter(small, "L", "D")])
        with pytest.raises(BasisMismatch):
            compose([beam_splitter(small, "L", "D")], basis=BASIS)

    def test_composition_of_unitaries_is_unitary(self):
        stages = [
            hybrid_beam_splitter(BASIS, "R", "D"),
            hybrid_beam_splitter(BASIS, "L", "U"),
            phase_shifter(BASIS, "L", 0.3),
            phase_shifter(BASIS, "D", 0.9),
            hybrid_beam_splitter(BASIS, "D", "L"),
            hybrid_beam_splitter(BASIS, "R", "U"),
        ]
        assert verify_unitary(compose(stages), 1e-12)


TWO_SPECIES = ModeBasis(internals=("down", "up"), externals=("L", "D", "R", "U"), species=(2, 1))
ELEMENTS = {
    "phase": lambda b: phase_shifter(b, "D", 0.37),
    "bs": lambda b: beam_splitter(b, "L", "U", "R", "D"),
    "hbs": lambda b: hybrid_beam_splitter(b, "R", "D"),
    "sorter": lambda b: dof_sorter(b, {"down": "L", "up": "R"}, port="L"),
    "exchange": lambda b: exchange_wiring(b, {"L": "R", "D": "U"}),
}


class TestSpeciesBlind:
    @pytest.mark.parametrize("build", ELEMENTS.values(), ids=ELEMENTS.keys())
    def test_every_species_gets_the_one_species_matrix(self, build):
        # declared out of order: the basis still lists species 1 before 2
        want = np.kron(np.eye(2), build(BASIS).matrix)
        assert np.array_equal(build(TWO_SPECIES).matrix, want)


class TestColumns:
    @pytest.mark.parametrize("build", ELEMENTS.values(), ids=ELEMENTS.keys())
    def test_columns_are_the_nonzeros_above_tolerance(self, build):
        mat = build(TWO_SPECIES).matrix.copy()
        mat[0, 1] = COLUMN_DROP_TOLERANCE  # at the tolerance: dropped
        mat[1, 0] = 2 * COLUMN_DROP_TOLERANCE  # above it: kept
        t = ModeTransform(TWO_SPECIES, mat)
        assert len(t.columns) == len(TWO_SPECIES)
        for m, column in enumerate(t.columns):
            rows = [k for k in range(len(TWO_SPECIES)) if abs(mat[k, m]) > COLUMN_DROP_TOLERANCE]
            assert [k for k, _ in column] == rows
            for k, v in column:
                assert type(k) is int and type(v) is complex
                assert v == mat[k, m]
        assert (1, complex(2 * COLUMN_DROP_TOLERANCE)) in t.columns[0]

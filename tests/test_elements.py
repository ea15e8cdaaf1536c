"""Unit tests for the optical-element mode transforms."""

import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fockflow.algebra import ModeBasis, Statistics, UnknownMode, norm_squared, substitute
from fockflow.cdl import compile_circuit, execute, parse_source
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
    phase_shifter,
    verify_unitary,
)
from reference import apply_creation, dense, dense_product, from_matrix, vacuum

EXAMPLES = Path(__file__).resolve().parents[1] / "src" / "fockflow" / "examples"
BASIS = ModeBasis(internals=("down", "up"), externals=("L", "D", "R", "U"))


CONSTRUCTORS = {
    "identity": ModeTransform(BASIS, ()),
    "phase D 0.37": phase_shifter(BASIS, "D", 0.37),
    "bs L U -> L U": beam_splitter(BASIS, "L", "U"),
    "bs L U -> R D": beam_splitter(BASIS, "L", "U", "R", "D"),
    "hbs R D -> R D": hybrid_beam_splitter(BASIS, "R", "D"),
    "sorter internal L": dof_sorter(BASIS, {"down": "L", "up": "R"}, port="L"),
    "exchange": exchange_wiring(BASIS, {"L": "R"}),
}


class TestUnitarity:
    @pytest.mark.parametrize("t", list(CONSTRUCTORS.values()), ids=list(CONSTRUCTORS))
    def test_every_constructor_is_unitary(self, t):
        assert verify_unitary(t, 1e-12)

    def test_broken_matrix_detected(self):
        mat = np.eye(len(BASIS), dtype=complex)
        mat[3, :] = 0.0
        assert not verify_unitary(from_matrix(BASIS, mat), 1e-12)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_unitary(ModeTransform(BASIS, ()), 0.0)


class TestPhaseShifter:
    def test_zero_phase_is_identity(self):
        t = phase_shifter(BASIS, "L", 0.0)
        assert np.allclose(dense(t), np.eye(len(BASIS)))

    def test_pi_phase_negates_only_that_port(self):
        t = phase_shifter(BASIS, "L", math.pi)
        for k, mode in enumerate(BASIS.modes):
            want = -1.0 if mode.external.name == "L" else 1.0
            assert dense(t)[k, k] == pytest.approx(want)

    def test_unknown_port(self):
        with pytest.raises(UnknownMode):
            phase_shifter(BASIS, "X", 1.0)

    @pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase(self, phase):
        with pytest.raises(ValueError, match=r"phase at port 'L' must be finite, got -?(nan|inf)"):
            phase_shifter(BASIS, "L", phase)


class TestSplitters:
    def test_bs_amplitudes(self):
        t = beam_splitter(BASIS, "L", "U")
        root2 = math.sqrt(2)
        a_in = BASIS.index_of(BASIS.mode("down", "L"))
        b_in = BASIS.index_of(BASIS.mode("down", "U"))
        assert dense(t)[a_in, a_in] == pytest.approx(1 / root2)
        assert dense(t)[b_in, a_in] == pytest.approx(1j / root2)
        assert dense(t)[a_in, b_in] == pytest.approx(1j / root2)
        assert dense(t)[b_in, b_in] == pytest.approx(1 / root2)
        # internal label untouched: no down->up entries
        up_out = BASIS.index_of(BASIS.mode("up", "U"))
        assert dense(t)[up_out, a_in] == 0

    def test_hbs_flips_on_reflection_only(self):
        t = hybrid_beam_splitter(BASIS, "R", "D")
        root2 = math.sqrt(2)
        col = BASIS.index_of(BASIS.mode("down", "R"))
        keep = BASIS.index_of(BASIS.mode("down", "R"))
        flip = BASIS.index_of(BASIS.mode("up", "D"))
        assert dense(t)[keep, col] == pytest.approx(1 / root2)
        assert dense(t)[flip, col] == pytest.approx(1j / root2)
        assert dense(t)[BASIS.index_of(BASIS.mode("down", "D")), col] == 0

    def test_hbs_flip_symmetric_in_labels(self):
        t = hybrid_beam_splitter(BASIS, "R", "D")
        col = BASIS.index_of(BASIS.mode("up", "R"))
        assert dense(t)[BASIS.index_of(BASIS.mode("up", "R")), col] == pytest.approx(1 / math.sqrt(2))
        assert dense(t)[BASIS.index_of(BASIS.mode("down", "D")), col] == pytest.approx(1j / math.sqrt(2))

    def test_double_application_is_phase_times_permutation(self):
        for kind, build in (("bs", beam_splitter), ("hbs", hybrid_beam_splitter)):
            t = build(BASIS, "L", "U")
            twice = np.abs(dense(t) @ dense(t))
            assert np.all((twice < 1e-12) | (np.abs(twice - 1) < 1e-12)), kind
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
        assert dense(t)[BASIS.index_of(BASIS.mode("down", "R")), col] == pytest.approx(1 / math.sqrt(2))
        assert dense(t)[BASIS.index_of(BASIS.mode("up", "D")), col] == pytest.approx(1j / math.sqrt(2))


def assert_permutation(t):
    mag = np.abs(dense(t))
    assert np.all((mag < 1e-12) | (np.abs(mag - 1) < 1e-12)), "entries not 0/1"
    assert np.allclose(mag.sum(axis=0), 1), "column sums"
    assert np.allclose(mag.sum(axis=1), 1), "row sums"


class TestSorters:
    def test_internal_sorter_routes_by_label(self):
        t = dof_sorter(BASIS, {"down": "L", "up": "R"}, port="L")
        assert_permutation(t)
        # a down particle at L stays, an up particle at L moves to R
        down_l = BASIS.index_of(BASIS.mode("down", "L"))
        up_l = BASIS.index_of(BASIS.mode("up", "L"))
        up_r = BASIS.index_of(BASIS.mode("up", "R"))
        assert dense(t)[down_l, down_l] == 1
        assert dense(t)[up_r, up_l] == 1
        assert dense(t)[up_l, up_l] == 0

    def test_internal_sorter_is_involution(self):
        t = dof_sorter(BASIS, {"down": "D", "up": "U"}, port="L")
        assert np.allclose(dense(t) @ dense(t), np.eye(len(BASIS)))

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
        assert dense(t)[r, l] == 1 and dense(t)[l, r] == 1

    def test_identity_relabel(self):
        t = exchange_wiring(BASIS, {})
        assert np.allclose(dense(t), np.eye(len(BASIS)))

    def test_relabel_then_inverse_is_identity(self):
        fwd = exchange_wiring(BASIS, {"L": "D", "D": "R", "R": "L"})
        inv = exchange_wiring(BASIS, {"D": "L", "R": "D", "L": "R"})
        assert np.allclose(dense(inv) @ dense(fwd), np.eye(len(BASIS)))

    def test_chain_closes_into_cycle(self):
        t = exchange_wiring(BASIS, {"L": "D", "D": "R"})
        assert_permutation(t)
        r = BASIS.index_of(BASIS.mode("down", "R"))
        l = BASIS.index_of(BASIS.mode("down", "L"))
        assert dense(t)[l, r] == 1, "chain tail must route back to the head"

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

    def test_single_stage_unchanged(self):
        t = hybrid_beam_splitter(BASIS, "R", "D")
        assert np.allclose(dense(compose([t])), dense(t))

    def test_application_order(self):
        # phase after splitter differs from splitter after phase
        a = phase_shifter(BASIS, "U", 1.0)
        b = beam_splitter(BASIS, "L", "U")
        ab = dense(compose([a, b]))  # a acts first
        assert np.allclose(ab, dense(b) @ dense(a))

    def test_associativity(self):
        a = hybrid_beam_splitter(BASIS, "R", "D")
        b = phase_shifter(BASIS, "D", 0.7)
        c = beam_splitter(BASIS, "L", "U")
        left = dense(compose([compose([a, b]), c]))
        right = dense(compose([a, compose([b, c])]))
        assert np.max(np.abs(left - right)) < 1e-12

    def test_conflicting_label_order_rejected(self):
        a = ModeTransform(ModeBasis(internals=("down", "up"), externals=("L", "R")), ())
        b = ModeTransform(ModeBasis(internals=("down", "up"), externals=("R", "L")), ())
        with pytest.raises(BasisMismatch):
            compose([a, b])

    def test_stage_over_another_basis_rejected(self):
        small = ModeBasis(internals=("down", "up"), externals=("L", "D"))
        with pytest.raises(BasisMismatch, match="stage 1 is over"):
            compose([ModeTransform(BASIS, ()), beam_splitter(small, "L", "D")])

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
THREE_SPECIES = ModeBasis(
    internals=("down", "up"), externals=("L", "D", "R", "U"), species=(3, 1, 2)
)
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
        # declared out of order: the basis still lists species by rank
        one = dense(build(BASIS))
        for basis in (TWO_SPECIES, THREE_SPECIES):
            t = build(basis)
            assert np.array_equal(dense(t), one)
            full = np.kron(np.eye(len(basis.species)), one)
            for r in range(len(basis)):
                rows = np.flatnonzero(np.abs(full[:, r]) > COLUMN_DROP_TOLERANCE).tolist()
                assert t.column(r) == tuple((k, full[k, r]) for k in rows)

    def test_distinguishable_stages_are_slot_matrices(self):
        source = (EXAMPLES / "hh_distinguishable.cdl").read_text()
        compiled = compile_circuit(parse_source(source))
        assert len(compiled.basis) == 16 and len(compiled.stages) == 8
        assert all(dense(t).shape == (8, 8) for t in compiled.stages)
        assert all(0 <= k < 8 for t in compiled.stages for images in t.maps for k in images)


class TestColumns:
    @pytest.mark.parametrize("build", ELEMENTS.values(), ids=ELEMENTS.keys())
    def test_columns_are_the_nonzeros_above_tolerance(self, build):
        mat = dense(build(TWO_SPECIES))
        mat[0, 1] = COLUMN_DROP_TOLERANCE  # at the tolerance: dropped
        mat[1, 0] = 2 * COLUMN_DROP_TOLERANCE  # above it: kept
        t = from_matrix(TWO_SPECIES, mat)
        n = len(mat)
        assert len(t.columns) == len(TWO_SPECIES) == 2 * n
        for m, column in enumerate(t.columns):
            shift, slot = m - m % n, m % n
            rows = [k for k in range(n) if abs(mat[k, slot]) > COLUMN_DROP_TOLERANCE]
            assert [k for k, _ in column] == [shift + k for k in rows]
            for k, v in column:
                assert type(k) is int and type(v) is complex
                assert v == mat[k - shift, slot]
        for block in (0, n):
            assert (block + 1, complex(2 * COLUMN_DROP_TOLERANCE)) in t.columns[block]

    def test_substitute_builds_only_the_occupied_columns(self):
        pushed = []

        class Counting(ModeTransform):
            def column(self, m):
                pushed.append(m)
                return super().column(m)

        source = (EXAMPLES / "hh_distinguishable.cdl").read_text()
        compiled = compile_circuit(parse_source(source))
        composed = compose(compiled.stages)
        t = Counting(composed.basis, composed.maps)
        assert len(t.basis) == 16
        (mono,) = compiled.initial.terms
        occupied = sorted(t.basis.index_of(m) for m in mono.ops())
        assert len(occupied) == 2
        substitute(compiled.initial, t)
        assert sorted(pushed) == occupied  # each occupied column once, no other
        assert len(t.columns) == 16


def mesh_source(n: int, rng: random.Random) -> str:
    """N bosons on 2N ports through 2N layers of random splitter pairs and phases."""
    m = 2 * n
    lines = ["internal h", "external " + " ".join(f"p{k}" for k in range(m)), "statistics boson"]
    lines += [f"particle h p{k}" for k in sorted(rng.sample(range(m), n))]
    for _ in range(m):
        order = list(range(m))
        rng.shuffle(order)
        lines += [f"bs p{a} p{b} p{a} p{b}" for a, b in zip(order[::2], order[1::2])]
        lines += [f"phase p{k} {rng.uniform(0.0, 2.0 * math.pi)!r}" for k in range(m)]
    return "\n".join(lines) + "\n"


def wide_source(ports: int, splitters: int, rng: random.Random) -> str:
    """Two bosons on ``ports`` ports through ``splitters`` splitters on random port pairs."""
    names = [f"p{k}" for k in range(ports)]
    lines = ["internal h", "external " + " ".join(names), "statistics boson"]
    lines += ["particle h p0", "particle h p1"]
    for _ in range(splitters):
        a, b = rng.sample(names, 2)
        lines.append(f"bs {a} {b} {a} {b}")
    q = ports // 4
    for party, lo in (("A", 0), ("B", 2 * q)):
        bins = [f"bin {names[k]} = " + " ".join(names[k : k + q]) for k in (lo, lo + q)]
        lines.append(f"measure {party} external " + " ".join(bins))
    return "\n".join(lines) + "\n"


class TestColumnPush:
    def test_seeded_meshes_match_the_dense_product(self):
        rng = random.Random(7)
        for n in (3, 4, 5, 6):
            for _ in range(6):
                stages = compile_circuit(parse_source(mesh_source(n, rng))).stages
                assert np.max(np.abs(dense(compose(stages)) - dense_product(stages))) <= 1e-12

    def test_a_400_port_file_runs_in_little_memory(self):
        # 400 dense 400 x 400 stages would take about 1 GB
        source = wide_source(400, 400, random.Random(400))
        tracemalloc.start()
        try:
            state = execute(compile_circuit(parse_source(source)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norm_squared(state) == pytest.approx(1.0, abs=1e-12)
        assert peak < 16 * 2**20, peak

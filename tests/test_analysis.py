"""Unit tests for observables: tables, correlations, CHSH, closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockflow.algebra import (
    ModeBasis,
    Statistics,
    ZeroNorm,
    add,
    apply_creation,
    norm_squared,
    scale,
    substitute,
    vacuum,
)
from fockflow.analysis import (
    ChshSettings,
    CoincidenceTable,
    DEFAULT_SIGNS,
    DetectorDistribution,
    MeasurementPartition,
    OverlappingPartitions,
    ZeroCoincidenceMass,
    chsh_grid_search,
    chsh_value,
    closed_form_table,
    coincidence_table,
    completeness,
    correlation,
    factorization_residual,
)
from fockflow.elements import beam_splitter, compose, hybrid_beam_splitter, phase_shifter
from fockflow.experiments import PhaseSettings
from reference import reference_coincidence_table

PORTS = ("L", "D", "R", "U")
BASIS = ModeBasis(internals=("down", "up"), externals=PORTS)


def table_from_E(e):
    # a 2x2 table whose normalized correlation is exactly e
    p_same = (1 + e) / 8
    p_diff = (1 - e) / 8
    return CoincidenceTable(
        ("D", "L"), ("R", "U"), np.array([[p_same, p_diff], [p_diff, p_same]])
    )


class TestCorrelation:
    def test_reads_back_programmed_value(self):
        for e in (-1.0, -0.25, 0.0, 0.7, 1.0):
            assert correlation(table_from_E(e)) == pytest.approx(e)

    def test_sign_relabeling_symmetry(self):
        # flipping every sign and swapping both parties' bin order leaves E alone
        t = table_from_E(0.6)
        flipped = CoincidenceTable(("L", "D"), ("U", "R"), t.probs[::-1, ::-1])
        assert correlation(t) == pytest.approx(correlation(flipped))

    def test_missing_sign_label(self):
        t = CoincidenceTable(("x", "y"), ("R", "U"), np.full((2, 2), 0.0625))
        with pytest.raises(ValueError, match="sign map"):
            correlation(t)

    def test_zero_mass(self):
        t = CoincidenceTable(("D", "L"), ("R", "U"), np.zeros((2, 2)))
        with pytest.raises(ZeroCoincidenceMass):
            correlation(t)


class TestChsh:
    @staticmethod
    def cosine_runner(a, b):
        return table_from_E(math.cos(a - b))

    def test_equal_settings_give_twice_E(self):
        s = ChshSettings(0.3, 0.3, 1.0, 1.0)
        expected = 2 * abs(math.cos(0.3 - 1.0))
        assert chsh_value(self.cosine_runner, s) == pytest.approx(expected)

    def test_tsirelson_quadruple_for_cosine_correlation(self):
        # for E = cos(a - b) the optimum sits at (0, pi/2, pi/4, -pi/4)
        s = ChshSettings(0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
        assert chsh_value(self.cosine_runner, s) == pytest.approx(2 * math.sqrt(2))

    def test_grid_search_finds_the_optimum(self):
        grid = [k * math.pi / 8 for k in range(16)]
        best, settings = chsh_grid_search(self.cosine_runner, grid)
        assert best == pytest.approx(2 * math.sqrt(2))
        assert chsh_value(self.cosine_runner, settings) == pytest.approx(best)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            chsh_grid_search(self.cosine_runner, [])


class TestClosedForm:
    def test_fermion_path_path_aligned(self):
        t = closed_form_table("path-path", Statistics.FERMION, PhaseSettings())
        assert np.allclose(t.probs, [[0.25, 0.0], [0.0, 0.25]])

    def test_boson_spin_spin_aligned(self):
        # boson analyzer angle is shifted a quarter turn from the fermion one;
        # phi_r = pi cancels the shift, leaving the chequer at its node
        t = closed_form_table("spin-spin", Statistics.BOSON, PhaseSettings(phi_r=math.pi))
        assert np.allclose(t.probs, [[0.0, 0.25], [0.25, 0.0]])

    def test_statistics_swap_is_quarter_turn(self):
        s = PhaseSettings(phi_d=0.7, phi_u=1.3)
        f = closed_form_table("path-path", Statistics.FERMION, s)
        shifted = PhaseSettings(phi_d=0.7, phi_u=1.3, phi_r=math.pi)
        b = closed_form_table("path-path", Statistics.BOSON, shifted)
        assert np.allclose(f.probs, b.probs)

    def test_row_sums_quarter(self):
        s = PhaseSettings(0.2, 1.1, 2.3, 0.9)
        for kind in ("path-path", "spin-spin", "spin-path", "path-spin"):
            for stats in (Statistics.FERMION, Statistics.BOSON):
                t = closed_form_table(kind, stats, s)
                assert np.allclose(t.probs.sum(axis=1), 0.25)
                assert np.allclose(t.probs.sum(axis=0), 0.25)

    def test_no_closed_form_for_distinguishable(self):
        with pytest.raises(ValueError):
            closed_form_table("path-path", Statistics.DISTINGUISHABLE, PhaseSettings())

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            closed_form_table("spin-charge", Statistics.FERMION, PhaseSettings())

    def test_label_override(self):
        t = closed_form_table(
            "spin-path", Statistics.BOSON, PhaseSettings(), row_labels=("H", "V")
        )
        assert t.row_labels == ("H", "V")


def port_slots(port):
    """Every (external index, internal index) slot at one port of BASIS."""
    return frozenset((PORTS.index(port), i) for i in range(len(BASIS.internals)))


class TestCoincidenceTable:
    def partitions(self):
        part_a = MeasurementPartition(
            "A", "external", (("D", port_slots("D")), ("L", port_slots("L")))
        )
        part_b = MeasurementPartition(
            "B", "external", (("R", port_slots("R")), ("U", port_slots("U")))
        )
        return part_a, part_b

    def test_same_side_events_are_excluded(self):
        st = vacuum(Statistics.FERMION)
        st = apply_creation(st, BASIS.mode("down", "D"))
        st = apply_creation(st, BASIS.mode("up", "L"))  # both on Alice's side
        part_a, part_b = self.partitions()
        t = coincidence_table(st, part_a, part_b)
        assert t.total() == 0.0

    def test_coincidence_cell_placement(self):
        st = vacuum(Statistics.FERMION)
        st = apply_creation(st, BASIS.mode("down", "D"))
        st = apply_creation(st, BASIS.mode("up", "U"))
        part_a, part_b = self.partitions()
        t = coincidence_table(st, part_a, part_b)
        assert t.cell("D", "U") == pytest.approx(1.0)
        assert t.total() == pytest.approx(1.0)

    def test_overlapping_parties_rejected(self):
        part_a, _ = self.partitions()
        with pytest.raises(OverlappingPartitions):
            coincidence_table(vacuum(Statistics.FERMION), part_a, part_a)

    def test_overlapping_bins_rejected(self):
        slot = (PORTS.index("D"), 0)
        with pytest.raises(OverlappingPartitions):
            MeasurementPartition(
                "A", "external", (("a", frozenset({slot})), ("b", frozenset({slot})))
            )

    @pytest.mark.parametrize(
        "element",
        [BASIS.mode("down", "D"), (1,), (1, 0, 0), (1, 0.0), (np.int64(1), 0), "D"],
        ids=["mode", "short", "long", "float", "numpy-int", "name"],
    )
    def test_bin_elements_must_be_int_slots(self, element):
        # a bin that is not a set of slots would read zero in every cell
        with pytest.raises(ValueError, match="is not an"):
            MeasurementPartition("A", "external", (("D", frozenset({element})),))

    def test_zero_norm_state(self):
        part_a, part_b = self.partitions()
        with pytest.raises(ZeroNorm):
            coincidence_table(scale(vacuum(Statistics.FERMION), 0.0), part_a, part_b)


class TestFactorization:
    def test_product_table_has_zero_residual(self):
        t = np.outer([0.3, 0.7], [0.4, 0.6])
        assert factorization_residual(t) == pytest.approx(0.0)

    def test_anticorrelated_table(self):
        assert factorization_residual(np.array([[0.0, 0.5], [0.5, 0.0]])) == pytest.approx(0.25)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            factorization_residual(np.zeros((2, 2)))


class TestDetectorDistribution:
    def test_mass(self):
        d = DetectorDistribution({1: 0.25, 2: 0.25, 3: 0.5})
        assert d.mass([1, 3]) == pytest.approx(0.75)
        assert d.mass([7]) == 0.0

    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DetectorDistribution({1: 0.5})

    def test_no_negative_probabilities(self):
        with pytest.raises(ValueError):
            DetectorDistribution({1: 1.5, 2: -0.5})


class TestSweepAndEnumeration:
    def test_completeness_of_a_simple_state(self):
        st = vacuum(Statistics.FERMION)
        st = apply_creation(st, BASIS.mode("down", "L"))
        st = apply_creation(st, BASIS.mode("down", "R"))
        assert completeness(st, BASIS) == pytest.approx(1.0)

    def test_completeness_of_three_distinguishable_species(self):
        three = ModeBasis(
            internals=("down", "up"), externals=("L", "D", "R", "U"), species=(1, 2, 3)
        )
        st = vacuum(Statistics.DISTINGUISHABLE)
        for sp, port in ((3, "R"), (2, "D"), (1, "L")):
            st = apply_creation(st, three.mode("down", port, species=sp))
        mesh = compose(
            [
                hybrid_beam_splitter(three, "L", "D"),
                beam_splitter(three, "D", "R"),
                hybrid_beam_splitter(three, "R", "U"),
            ]
        )
        st = substitute(st, mesh)
        assert len(st.terms) > 8
        assert completeness(st, three) == pytest.approx(1.0, abs=1e-12)

    def test_terms_outside_the_basis_are_not_counted(self):
        wide = ModeBasis(internals=("down", "up"), externals=("L", "D", "R", "U", "X"))
        inside = apply_creation(vacuum(Statistics.BOSON), wide.mode("down", "L"))
        outside = apply_creation(vacuum(Statistics.BOSON), wide.mode("down", "X"))
        st = scale(add(inside, outside), 2**-0.5)
        assert completeness(st, wide) == pytest.approx(1.0, abs=1e-12)
        assert completeness(st, BASIS) == pytest.approx(0.5, abs=1e-12)


@st.composite
def readout_case(draw):
    """A two-particle state after a random bs/hbs/phase mesh, plus random slot partitions.

    Boson, fermion, and distinguishable particles over 2 or 3 species; every
    (internal, port) slot goes to one bin of A, one bin of B, or none.
    """
    species = draw(st.sampled_from([(0,), (0,), (1, 2), (1, 2, 3)]))
    if species != (0,):
        statistics = Statistics.DISTINGUISHABLE
    else:
        statistics = draw(st.sampled_from([Statistics.BOSON, Statistics.FERMION]))
    basis = ModeBasis(internals=("down", "up"), externals=PORTS, species=species)
    slots = [(i, p) for i in basis.internals for p in PORTS]
    picked = draw(
        st.lists(
            st.sampled_from(slots),
            min_size=2,
            max_size=2,
            unique=statistics is Statistics.FERMION,
        )
    )
    tags = draw(st.permutations(species))[:2] if len(species) > 1 else species * 2
    state = vacuum(statistics)
    for (internal, port), sp in zip(picked, tags):
        state = apply_creation(state, basis.mode(internal, port, species=sp))
    state = scale(state, norm_squared(state) ** -0.5)  # two bosons in one mode

    stages = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        pick = draw(st.sampled_from(["bs", "hbs", "phase"]))
        if pick == "phase":
            port = draw(st.sampled_from(PORTS))
            stages.append(phase_shifter(basis, port, draw(st.floats(0, 6.3))))
            continue
        a, b, t, r = draw(st.permutations(PORTS))
        if draw(st.booleans()):
            t, r = a, b
        build = beam_splitter if pick == "bs" else hybrid_beam_splitter
        stages.append(build(basis, a, b, t, r))
    state = substitute(state, compose(stages))

    n_a, n_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    owner = draw(st.lists(st.integers(-1, n_a + n_b - 1), min_size=len(slots), max_size=len(slots)))

    def bins(labels, offset):
        return tuple(
            (
                label,
                frozenset(
                    (PORTS.index(p), basis.internals.index(i))
                    for (i, p), k in zip(slots, owner)
                    if k == offset + n
                ),
            )
            for n, label in enumerate(labels)
        )

    part_a = MeasurementPartition("A", "external", bins([f"a{n}" for n in range(n_a)], 0))
    part_b = MeasurementPartition("B", "external", bins([f"b{n}" for n in range(n_b)], n_a))
    return state, basis, part_a, part_b


class TestDetectorReadout:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(readout_case())
    def test_table_matches_the_per_term_reference(self, case):
        state, basis, part_a, part_b = case
        got = coincidence_table(state, part_a, part_b)
        want = reference_coincidence_table(state, part_a, part_b)
        assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)
        assert np.max(np.abs(got.probs - want.probs)) < 1e-12
        assert abs(completeness(state, basis) - 1.0) < 1e-12

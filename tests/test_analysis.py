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
    detector_distribution,
    norm_squared,
    scale,
    substitute,
)
from fockflow.analysis import (
    CoincidenceTable,
    MeasurementPartition,
    OverlappingPartitions,
    ZeroCoincidenceMass,
    chsh_grid_search,
    chsh_value,
    coincidence_table,
    completeness,
    correlation,
)
from fockflow.elements import beam_splitter, compose, hybrid_beam_splitter, phase_shifter
from reference import (
    apply_creation,
    closed_form_table,
    factorization_residual,
    reference_coincidence_table,
    vacuum,
)

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
        flipped = CoincidenceTable(("L", "D"), ("U", "R"), np.asarray(t.probs)[::-1, ::-1])
        assert correlation(t) == pytest.approx(correlation(flipped))

    def test_missing_sign_label(self):
        t = CoincidenceTable(("x", "y"), ("R", "U"), np.full((2, 2), 0.0625))
        with pytest.raises(ValueError, match="sign map"):
            correlation(t)

    def test_zero_mass(self):
        t = CoincidenceTable(("D", "L"), ("R", "U"), np.zeros((2, 2)))
        with pytest.raises(ZeroCoincidenceMass):
            correlation(t)

    def test_zero_mass_threshold_is_1e_15(self):
        below = CoincidenceTable(("D", "L"), ("R", "U"), [[5e-16, 0], [0, 0]])
        with pytest.raises(ZeroCoincidenceMass):
            correlation(below)
        above = CoincidenceTable(("D", "L"), ("R", "U"), [[2e-15, 0], [0, 0]])
        assert correlation(above) == 1.0  # D and R both count -1


class TestChsh:
    @staticmethod
    def cosine_runner(a, b):
        return table_from_E(math.cos(a - b))

    def test_equal_settings_give_twice_E(self):
        expected = 2 * abs(math.cos(0.3 - 1.0))
        assert chsh_value(self.cosine_runner, (0.3, 0.3, 1.0, 1.0)) == pytest.approx(expected)

    def test_tsirelson_quadruple_for_cosine_correlation(self):
        # for E = cos(a - b) the optimum sits at (0, pi/2, pi/4, -pi/4)
        dials = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)
        assert chsh_value(self.cosine_runner, dials) == pytest.approx(2 * math.sqrt(2))

    def test_grid_search_finds_the_optimum(self):
        grid = [k * math.pi / 8 for k in range(16)]
        best, dials = chsh_grid_search(self.cosine_runner, grid)
        assert best == pytest.approx(2 * math.sqrt(2))
        assert chsh_value(self.cosine_runner, dials) == pytest.approx(best)

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            chsh_grid_search(self.cosine_runner, [])


class TestClosedForm:
    def test_fermion_path_path_aligned(self):
        t = closed_form_table("path-path", Statistics.FERMION, {})
        assert np.allclose(t.probs, [[0.25, 0.0], [0.0, 0.25]])

    def test_boson_spin_spin_aligned(self):
        # boson analyzer angle is shifted a quarter turn from the fermion one;
        # phiR = pi cancels the shift, leaving the chequer at its node
        t = closed_form_table("spin-spin", Statistics.BOSON, {"phiR": math.pi})
        assert np.allclose(t.probs, [[0.0, 0.25], [0.25, 0.0]])

    def test_statistics_swap_is_quarter_turn(self):
        s = {"phiD": 0.7, "phiU": 1.3}
        f = closed_form_table("path-path", Statistics.FERMION, s)
        shifted = {**s, "phiR": math.pi}
        b = closed_form_table("path-path", Statistics.BOSON, shifted)
        assert np.allclose(f.probs, b.probs)

    def test_row_sums_quarter(self):
        s = {"phiL": 0.2, "phiD": 1.1, "phiR": 2.3, "phiU": 0.9}
        for kind in ("path-path", "spin-spin", "spin-path", "path-spin"):
            for stats in (Statistics.FERMION, Statistics.BOSON):
                t = closed_form_table(kind, stats, s)
                assert np.allclose(np.asarray(t.probs).sum(axis=1), 0.25)
                assert np.allclose(np.asarray(t.probs).sum(axis=0), 0.25)

    def test_no_closed_form_for_distinguishable(self):
        with pytest.raises(ValueError):
            closed_form_table("path-path", Statistics.DISTINGUISHABLE, {})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            closed_form_table("spin-charge", Statistics.FERMION, {})

    def test_label_override(self):
        t = closed_form_table(
            "spin-path", Statistics.BOSON, {}, row_labels=("H", "V")
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
        t = coincidence_table(detector_distribution(st)[0], part_a, part_b)
        assert t.total() == 0.0

    def test_total_is_numpy_sum_to_the_bit(self):
        # 1x1 to 16x16: a plain loop, eight lanes (8 to 128 cells) and halves
        # above 128 cells; magnitudes from 1e-8 to 1e8 make the order show
        rng = np.random.default_rng(2024)
        plain_misses = 0
        for rows in range(1, 17):
            for cols in range(1, 17):
                for _ in range(4):
                    cells = rng.random((rows, cols)) * 10.0 ** rng.integers(-8, 9, (rows, cols))
                    t = CoincidenceTable(tuple(range(rows)), tuple(range(cols)), cells)
                    assert t.total() == float(np.sum(cells))
                    plain = 0.0
                    for p in cells.ravel().tolist():
                        plain += p
                    plain_misses += plain != t.total()
        assert plain_misses > 0  # the data tells numpy's order from a left-to-right sum

    def test_cells_are_rows_of_floats(self):
        t = CoincidenceTable(("D", "L"), ("R", "U"), np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert t.probs == ((0.5, 0.0), (0.0, 0.5))
        assert all(type(p) is float for row in t.probs for p in row)

    @pytest.mark.parametrize("cells", [[0.5, 0.5], [[0.5], [0.5, 0.0]], np.zeros((2, 3)), 0.5])
    def test_cells_must_match_the_labels(self, cells):
        with pytest.raises(ValueError, match="shape"):
            CoincidenceTable(("D", "L"), ("R", "U"), cells)

    def test_coincidence_cell_placement(self):
        st = vacuum(Statistics.FERMION)
        st = apply_creation(st, BASIS.mode("down", "D"))
        st = apply_creation(st, BASIS.mode("up", "U"))
        part_a, part_b = self.partitions()
        t = coincidence_table(detector_distribution(st)[0], part_a, part_b)
        assert np.asarray(t.probs)[t.row_labels.index("D"), t.col_labels.index("U")] == pytest.approx(1.0)
        assert t.total() == pytest.approx(1.0)

    def test_overlapping_parties_rejected(self):
        part_a, _ = self.partitions()
        with pytest.raises(OverlappingPartitions):
            coincidence_table(detector_distribution(vacuum(Statistics.FERMION))[0], part_a, part_a)

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
            coincidence_table(
                detector_distribution(scale(vacuum(Statistics.FERMION), 0.0))[0], part_a, part_b
            )


class TestFactorization:
    def test_product_table_has_zero_residual(self):
        t = np.outer([0.3, 0.7], [0.4, 0.6])
        assert factorization_residual(t) == pytest.approx(0.0)

    def test_anticorrelated_table(self):
        assert factorization_residual(np.array([[0.0, 0.5], [0.5, 0.0]])) == pytest.approx(0.25)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            factorization_residual(np.zeros((2, 2)))


class TestSweepAndEnumeration:
    def test_completeness_of_a_simple_state(self):
        st = vacuum(Statistics.FERMION)
        st = apply_creation(st, BASIS.mode("down", "L"))
        st = apply_creation(st, BASIS.mode("down", "R"))
        assert completeness(detector_distribution(st)[0]) == pytest.approx(1.0)

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
        assert completeness(detector_distribution(st)[0]) == pytest.approx(1.0, abs=1e-12)


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
    return state, part_a, part_b


class TestDetectorReadout:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(readout_case())
    def test_table_matches_the_per_term_reference(self, case):
        state, part_a, part_b = case
        probs = detector_distribution(state)[0]
        got = coincidence_table(probs, part_a, part_b)
        want = reference_coincidence_table(state, part_a, part_b)
        assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)
        assert np.max(np.abs(np.asarray(got.probs) - np.asarray(want.probs))) < 1e-12
        assert abs(completeness(probs) - 1.0) < 1e-12

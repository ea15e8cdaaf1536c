"""Unit tests for the second-quantized state algebra."""

import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockflow.algebra import (
    Label,
    Mode,
    ModeBasis,
    Monomial,
    StateVector,
    Statistics,
    UnknownMode,
    ZeroNorm,
    create,
    detector_distribution,
    norm_squared,
    scale,
    substitute,
)
from fockflow.elements import (
    ModeTransform,
    beam_splitter,
    compose,
    hybrid_beam_splitter,
    phase_shifter,
)
from reference import (
    DenseTransform,
    _grouped,
    add,
    apply_creation,
    canonicalize,
    from_matrix,
    insertion_substitute,
    is_canonical,
    monomial,
    order_key,
    reference_substitute,
    vacuum,
)

BASIS = ModeBasis(internals=("down", "up"), externals=("L", "D", "R", "U"))
POLAR = ModeBasis(internals=("H", "V"), externals=("L", "D", "R", "U"))


def random_unitary(n, seed):
    """Haar-random n x n unitary: QR of a complex Gaussian, phases fixed."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def ryser_permanents(mats):
    """Permanents of a stack of k x k matrices by Ryser's inclusion-exclusion formula.

    perm(A) = (-1)^k sum over column subsets S of (-1)^|S| prod_i sum_{j in S} A[i, j].
    """
    k = mats.shape[-1]
    subsets = np.array(list(itertools.product((0, 1), repeat=k))).T  # k x 2^k
    signs = (-1.0) ** (k - subsets.sum(axis=0))
    row_sums = mats @ subsets  # (..., k, 2^k)
    return np.prod(row_sums, axis=-2) @ signs


def mono(*pairs):
    counted = {}
    for i, e in pairs:
        m = BASIS.mode(i, e)
        counted[m] = counted.get(m, 0) + 1
    return Monomial(tuple(sorted(counted.items(), key=lambda kv: order_key(kv[0]))))


class TestModeBasis:
    def test_mode_enumeration_order(self):
        # external is the major key within a species, internal the minor
        names = [(m.internal.name, m.external.name) for m in BASIS.modes]
        assert names[:4] == [("down", "L"), ("up", "L"), ("down", "D"), ("up", "D")]
        assert len(BASIS) == 8

    def test_index_round_trip(self):
        for k, m in enumerate(BASIS.modes):
            assert BASIS.index_of(m) == k

    def test_unknown_labels_rejected(self):
        with pytest.raises(UnknownMode):
            BASIS.mode("down", "X")
        with pytest.raises(UnknownMode):
            BASIS.mode("sideways", "L")

    def test_unknown_mode_message_names_the_mode(self):
        with pytest.raises(UnknownMode, match=r"^mode \(7:down,L\) not in basis$"):
            BASIS.mode("down", "L", species=7)
        small = ModeBasis(internals=("down", "up"), externals=("L", "R"))
        with pytest.raises(UnknownMode, match=r"^mode \(down,D\) not in basis$"):
            small.index_of(BASIS.mode("down", "D"))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ModeBasis(internals=("a", "a"), externals=("L",))

    def test_species_block_structure(self):
        two = ModeBasis(internals=("down", "up"), externals=("L", "R"), species=(1, 2))
        assert len(two) == 8
        assert two.modes[0].species == 1 and two.modes[4].species == 2

    @pytest.mark.parametrize("species", [(0,), (1, 2), (2, 1), (3, 1, 2)])
    def test_index_is_canonical_rank(self, species):
        basis = ModeBasis(internals=("h", "v"), externals=("L", "R", "U"), species=species)
        ranked = sorted(basis.modes, key=order_key)
        for rank, mode in enumerate(ranked):
            assert basis.index_of(mode) == rank
        for (internal, external), slot in basis.slots.items():
            for block, sp in enumerate(sorted(species)):
                mode = basis.mode(internal, external, species=sp)
                assert basis.index_of(mode) == block * len(basis.slots) + slot


SPECIES_SETS = [(0,), (1, 2), (3, 1, 2)]


@pytest.mark.parametrize("species", SPECIES_SETS)
def test_mode_hash_is_the_dataclass_hash_and_fresh_modes_are_found(species):
    basis = ModeBasis(internals=("h", "v"), externals=("L", "R", "U"), species=species)
    for k, mode in enumerate(basis.modes):
        assert hash(mode) == hash((mode.species, mode.internal, mode.external))
        fresh = Mode(
            mode.species,
            Label(mode.internal.name, mode.internal.index),
            Label(mode.external.name, mode.external.index),
        )
        assert fresh == mode and basis.index_of(fresh) == k


@st.composite
def basis_and_ranks(draw):
    """A fresh 1-3-species basis and a sorted tuple of 0-6 of its indices, repeats allowed."""
    species = draw(st.sampled_from(SPECIES_SETS))
    basis = ModeBasis(internals=("h", "v"), externals=("L", "R"), species=species)
    ranks = draw(st.lists(st.integers(0, len(basis) - 1), max_size=6))
    return basis, tuple(sorted(ranks))


class TestBasisMonomial:
    @given(basis_and_ranks())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_the_reference_grouping(self, drawn):
        basis, ranks = drawn
        mono = monomial(basis, ranks)
        assert mono == _grouped([basis.modes[k] for k in ranks])
        assert hash(mono) == hash((mono.entries,))
        runs = [len(list(run)) for _, run in itertools.groupby(ranks)]
        assert mono.norm_factor() == math.prod(math.factorial(n) for n in runs)
        assert monomial(basis, ranks) is mono


class TestCreate:
    @pytest.mark.parametrize("statistics", list(Statistics))
    @pytest.mark.parametrize("bad", [-1, "len", 1.0])
    def test_rank_outside_the_basis_rejected(self, statistics, bad):
        basis = ModeBasis(internals=("h",), externals=("L", "R", "U"))
        rank = len(basis) if bad == "len" else bad
        with pytest.raises(UnknownMode, match=repr(rank)):
            create(basis, statistics, [rank, 2])


class TestCanonicalize:
    def test_pauli_exclusion(self):
        m = BASIS.mode("down", "R")
        coeff, out = canonicalize([m, m], Statistics.FERMION)
        assert coeff == 0 and out is None

    def test_single_transposition_parity(self):
        r, l = BASIS.mode("down", "R"), BASIS.mode("down", "L")
        coeff, out = canonicalize([r, l], Statistics.FERMION)
        assert coeff == -1
        assert out == mono(("down", "L"), ("down", "R"))

    def test_boson_occupation_accumulates(self):
        m = BASIS.mode("down", "L")
        coeff, out = canonicalize([m, m], Statistics.BOSON)
        assert coeff == 1
        assert out.entries == ((m, 2),)

    def test_already_sorted_keeps_plus_one(self):
        l, r = BASIS.mode("down", "L"), BASIS.mode("down", "R")
        assert canonicalize([l, r], Statistics.FERMION) == (1, mono(("down", "L"), ("down", "R")))

    @pytest.mark.parametrize("stats", [Statistics.BOSON, Statistics.DISTINGUISHABLE])
    def test_reordering_free_for_symmetric_statistics(self, stats):
        l, r, u = BASIS.mode("down", "L"), BASIS.mode("down", "R"), BASIS.mode("up", "U")
        a = canonicalize([u, r, l], stats)
        b = canonicalize([l, u, r], stats)
        assert a == b and a[0] == 1

    def test_three_mode_parity(self):
        l, r, u = BASIS.mode("down", "L"), BASIS.mode("down", "R"), BASIS.mode("up", "U")
        # [r, l, u] -> one swap to sort: odd parity
        coeff, _ = canonicalize([r, l, u], Statistics.FERMION)
        assert coeff == -1
        # [u, r, l] -> rotate: even parity
        coeff, _ = canonicalize([u, l, r], Statistics.FERMION)
        assert coeff == 1

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            canonicalize([], Statistics.BOSON)


class TestApplyCreation:
    def test_vacuum_single_particle(self):
        st = apply_creation(vacuum(Statistics.FERMION), BASIS.mode("down", "R"))
        assert st.terms == {mono(("down", "R")): 1.0 + 0.0j}

    def test_exclusion_gives_zero_state(self):
        st = apply_creation(vacuum(Statistics.FERMION), BASIS.mode("down", "R"))
        st = apply_creation(st, BASIS.mode("down", "R"))
        assert st.terms == {}

    def test_left_insertion_parity(self):
        # building f(down,R) then f(down,L) on the left crosses one operator
        st = apply_creation(vacuum(Statistics.FERMION), BASIS.mode("down", "R"))
        st = apply_creation(st, BASIS.mode("down", "L"))
        assert st.terms == {mono(("down", "L"), ("down", "R")): 1.0 + 0.0j}
        st = apply_creation(vacuum(Statistics.FERMION), BASIS.mode("down", "L"))
        st = apply_creation(st, BASIS.mode("down", "R"))
        assert st.terms == {mono(("down", "L"), ("down", "R")): -1.0 + 0.0j}

    def test_boson_double_occupation(self):
        st = vacuum(Statistics.BOSON)
        m = BASIS.mode("up", "D")
        st = apply_creation(apply_creation(st, m), m)
        assert st.terms == {Monomial(((m, 2),)): 1.0 + 0.0j}


class TestAmplitudeAndNorm:
    def test_boson_double_amplitude_factor(self):
        # stored coefficient c against occupation 2 weighs |c|^2 * 2!
        m = BASIS.mode("up", "D")
        st = scale(apply_creation(apply_creation(vacuum(Statistics.BOSON), m), m), 0.5)
        assert norm_squared(st) == pytest.approx(0.5)

    def test_single_particle_norm(self):
        st = apply_creation(vacuum(Statistics.FERMION), BASIS.mode("down", "R"))
        assert norm_squared(st) == pytest.approx(1.0)

    def test_zero_state_norm(self):
        st = scale(vacuum(Statistics.BOSON), 0.0)
        assert norm_squared(st) == 0.0

    def test_norm_adds_left_to_right(self):
        # weights 1, 1e-16, 1e-16: a compensated sum gives 1.0000000000000002
        terms = {monomial(BASIS, (k,)): a for k, a in enumerate((1.0, 1e-8, 1e-8))}
        st = StateVector(Statistics.BOSON, terms)
        assert norm_squared(st) == 1.0
        assert detector_distribution(st)[1] == 1.0


class TestSubstitute:
    def test_identity_transform_is_identity(self):
        st = apply_creation(vacuum(Statistics.FERMION), BASIS.mode("down", "R"))
        st = apply_creation(st, BASIS.mode("up", "U"))
        out = substitute(st, ModeTransform(BASIS, ()))
        assert out.terms == st.terms

    def test_hybrid_splitter_bracket(self):
        st = apply_creation(vacuum(Statistics.FERMION), BASIS.mode("down", "R"))
        out = substitute(st, hybrid_beam_splitter(BASIS, "R", "U"))
        root2 = math.sqrt(2)
        assert out.terms[mono(("down", "R"))] == pytest.approx(1 / root2)
        assert out.terms[mono(("up", "U"))] == pytest.approx(1j / root2)

    def test_unknown_mode_raises(self):
        small = ModeBasis(internals=("down", "up"), externals=("L", "R"))
        st = apply_creation(vacuum(Statistics.FERMION), BASIS.mode("down", "D"))
        with pytest.raises(UnknownMode):
            substitute(st, ModeTransform(small, ()))

    def test_two_particle_interference_merges_terms(self):
        # Hong-Ou-Mandel on a plain splitter: both photons identical internal
        from fockflow.elements import beam_splitter

        st = vacuum(Statistics.BOSON)
        st = apply_creation(st, BASIS.mode("down", "L"))
        st = apply_creation(st, BASIS.mode("down", "R"))
        out = substitute(st, beam_splitter(BASIS, "L", "R"))
        both_l = Monomial(((BASIS.mode("down", "L"), 2),))
        both_r = Monomial(((BASIS.mode("down", "R"), 2),))
        split = mono(("down", "L"), ("down", "R"))
        assert split not in out.terms, "coincidence term must cancel"
        probs = detector_distribution(out)[0]
        assert probs.get(both_l.pattern, 0.0) == pytest.approx(0.5)
        assert probs.get(both_r.pattern, 0.0) == pytest.approx(0.5)

    def test_fermions_antibunch_on_plain_splitter(self):
        from fockflow.elements import beam_splitter

        st = vacuum(Statistics.FERMION)
        st = apply_creation(st, BASIS.mode("down", "L"))
        st = apply_creation(st, BASIS.mode("down", "R"))
        out = substitute(st, beam_splitter(BASIS, "L", "R"))
        split = mono(("down", "L"), ("down", "R"))
        assert detector_distribution(out)[0].get(split.pattern, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("stats", list(Statistics))
    def test_non_ascending_species_stay_canonical(self, stats):
        # species declared out of order; the basis still enumerates by rank
        basis = ModeBasis(internals=("h", "v"), externals=("L", "R"), species=(2, 1))
        t = DenseTransform(basis, random_unitary(len(basis), seed=11))
        st = scale(vacuum(stats), 0.5)
        for modes in ([(2, "h", "L"), (1, "v", "R")], [(1, "h", "L"), (2, "v", "L"), (1, "h", "R")]):
            term = vacuum(stats)
            for sp, i, e in modes:
                term = apply_creation(term, basis.mode(i, e, species=sp))
            st = add(st, term)
        out = substitute(st, t)
        want = reference_substitute(st, t)
        assert all(is_canonical(m) for m in out.terms)
        assert set(out.terms) == set(want.terms)
        for m, a in want.terms.items():
            assert abs(out.terms[m] - a) < 1e-12

    @pytest.mark.parametrize("stats", [Statistics.BOSON, Statistics.FERMION])
    def test_six_particles_match_permanent_and_determinant(self, stats):
        # 6 particles on a random 12-mode unitary: the m^N expansion would
        # enumerate 12^6 products; every outcome is checked against the closed form
        basis = ModeBasis(internals=("a", "b"), externals=("p0", "p1", "p2", "p3", "p4", "p5"))
        u = random_unitary(len(basis), seed=6)
        inputs = [0, 2, 4, 7, 9, 11]
        st = vacuum(stats)
        for k in reversed(inputs):
            st = apply_creation(st, basis.modes[k])
        out = substitute(st, from_matrix(basis, u))
        assert norm_squared(out) == pytest.approx(1.0, abs=1e-12)
        index = {order_key(m): k for k, m in enumerate(basis.modes)}
        got = {
            tuple(index[order_key(m)] for m in mono.ops()): abs(a) ** 2 * mono.norm_factor()
            for mono, a in out.terms.items()
        }
        if stats is Statistics.BOSON:
            outcomes = list(itertools.combinations_with_replacement(range(len(basis)), 6))
            rows = np.array(outcomes)
            occupations = (rows[:, :, None] == np.arange(len(basis))).sum(axis=1)
            norms = np.array([math.factorial(n) for n in range(7)])[occupations].prod(axis=1)
            expected = np.abs(ryser_permanents(u[rows][:, :, inputs])) ** 2 / norms
        else:
            outcomes = list(itertools.combinations(range(len(basis)), 6))
            expected = np.abs(np.linalg.det(u[np.array(outcomes)][:, :, inputs])) ** 2
        assert set(got) <= set(outcomes)
        worst = max(abs(got.get(o, 0.0) - p) for o, p in zip(outcomes, expected))
        assert worst < 1e-12


def seeded_mesh(n: int, statistics: Statistics, seed: int):
    """A two-term state of N particles and a random mesh of splitters and phase plates.

    Indistinguishable particles get 2N ports.  N distinguishable particles,
    one species each, get 4 ports, so the 4^N outputs stay few; two of them
    may share a port.  Each term lists its ranks shuffled.
    """
    rng = random.Random(seed)
    distinct = statistics is Statistics.DISTINGUISHABLE
    m = 4 if distinct else 2 * n
    ports = tuple(f"p{k}" for k in range(m))
    basis = ModeBasis(("h",), ports, tuple(range(1, n + 1)) if distinct else (0,))
    stages = []
    for _ in range(m):
        order = list(ports)
        rng.shuffle(order)
        stages += [beam_splitter(basis, a, b) for a, b in zip(order[::2], order[1::2])]
        stages += [phase_shifter(basis, port, rng.uniform(0.0, 2.0 * math.pi)) for port in ports]
    state = StateVector(statistics, {})
    for amp in (0.6, 0.8j):
        if distinct:
            ranks = [k * m + rng.randrange(m) for k in range(n)]
        else:
            ranks = rng.sample(range(m), n)
        rng.shuffle(ranks)
        state = add(state, scale(create(basis, statistics, ranks), amp))
    return state, compose(stages)


def assert_matches(got: StateVector, want: StateVector) -> None:
    assert set(got.terms) == set(want.terms)
    assert all(abs(got.terms[m] - a) < 1e-12 for m, a in want.terms.items())


class TestPackedExpansion:
    """The packed occupation vectors ``substitute`` and ``create`` expand on.

    A key holds each mode's occupation in a field as wide as the state's
    largest particle count needs, so these cases sit at the field edges.
    """

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("stats", list(Statistics))
    def test_mesh_matches_the_insertion_order_exactly(self, stats, n):
        state, mesh = seeded_mesh(n, stats, seed=n)
        got, want = substitute(state, mesh), insertion_substitute(state, mesh)
        assert len(want.terms) > 1
        assert list(got.terms) == list(want.terms)
        assert all(got.terms[m] == a for m, a in want.terms.items())

    def test_terms_of_different_particle_counts_share_one_width(self):
        # key 0b10 is mode 1 at width 1 and mode 0 twice at width 2
        basis = ModeBasis(internals=("h",), externals=("L", "R", "U"))
        t = DenseTransform(basis, random_unitary(len(basis), seed=3))
        st = add(create(basis, Statistics.BOSON, [0, 0]), create(basis, Statistics.BOSON, [0]))
        assert_matches(substitute(st, t), reference_substitute(st, t))

    @pytest.mark.parametrize("n", [3, 4, 7, 8])
    def test_all_bosons_in_one_mode(self, n):
        # 3 and 7 fill their field (0b11, 0b111); 4 and 8 need a wider one
        basis = ModeBasis(internals=("h",), externals=("L", "R", "U"))
        top = len(basis) - 1
        st = create(basis, Statistics.BOSON, [top] * n)
        want = vacuum(Statistics.BOSON)
        for _ in range(n):
            want = apply_creation(want, basis.modes[top])
        assert st == want and list(st.terms) == [Monomial(((basis.modes[top], n),))]
        assert monomial(basis, (top,) * n) is next(iter(st.terms))
        t = DenseTransform(basis, random_unitary(len(basis), seed=n))
        assert_matches(substitute(st, t), reference_substitute(st, t))

    def test_distinguishable_mode_held_twice(self):
        basis = ModeBasis(internals=("h",), externals=("L", "R", "U"), species=(1, 2))
        st = create(basis, Statistics.DISTINGUISHABLE, [4, 1, 1])
        want = vacuum(Statistics.DISTINGUISHABLE)
        for r in (1, 1, 4):
            want = apply_creation(want, basis.modes[r])
        assert st == want and dict(next(iter(st.terms)).entries)[basis.modes[1]] == 2
        t = DenseTransform(basis, random_unitary(len(basis), seed=5))  # mixes the species
        assert_matches(substitute(st, t), reference_substitute(st, t))

    def test_fermion_sign_across_bit_63(self):
        # 5 fermions pack 3 bits a mode, so rank 21 holds bits 63-65 of an 80-mode key
        basis = ModeBasis(internals=("h", "v"), externals=tuple(f"p{k}" for k in range(40)))
        ranks = [75, 2, 21, 20, 40]  # five inversions
        st = create(basis, Statistics.FERMION, ranks)
        want = vacuum(Statistics.FERMION)
        for r in reversed(ranks):
            want = apply_creation(want, basis.modes[r])
        assert st == want and st.terms[next(iter(st.terms))] == -1.0
        # each column sends k to k, 79 - k and 21, so images land on both sides and collide
        rng = np.random.default_rng(21)
        u = np.zeros((len(basis), len(basis)), dtype=complex)
        for k in range(len(basis)):
            for row in {k, 79 - k, 21}:
                u[row, k] = complex(*rng.normal(size=2))
        t = DenseTransform(basis, u)
        got = substitute(st, t)
        assert_matches(got, reference_substitute(st, t))
        assert list(got.terms.items()) == list(insertion_substitute(st, t).terms.items())


class TestOutcomeProbability:
    def test_zero_norm_guard(self):
        st = scale(vacuum(Statistics.BOSON), 0.0)
        with pytest.raises(ZeroNorm):
            detector_distribution(st)

    def test_species_blind_pattern_sums(self):
        basis = ModeBasis(internals=("down", "up"), externals=("L", "R"), species=(1, 2))
        st = vacuum(Statistics.DISTINGUISHABLE)
        st = apply_creation(st, basis.mode("down", "L", species=1))
        st = apply_creation(st, basis.mode("down", "R", species=2))
        st = scale(st, 1 / math.sqrt(2))
        other = vacuum(Statistics.DISTINGUISHABLE)
        other = apply_creation(other, basis.mode("down", "R", species=1))
        other = apply_creation(other, basis.mode("down", "L", species=2))
        st = add(st, scale(other, 1j / math.sqrt(2)))
        # detector pattern (down,L)+(down,R) cannot tell species apart
        pattern = Monomial(
            ((basis.mode("down", "L", species=1), 1), (basis.mode("down", "R", species=2), 1))
        )
        assert detector_distribution(st)[0].get(pattern.pattern, 0.0) == pytest.approx(1.0)

    def test_detector_distribution_is_sorted_and_species_blind(self):
        # Hong-Ou-Mandel over two species: no bunching, but the detectors see
        # only slots, so (L, R) and (R, L) species assignments are one pattern
        from fockflow.elements import beam_splitter

        basis = ModeBasis(internals=("down",), externals=("L", "R"), species=(1, 2))
        st = vacuum(Statistics.DISTINGUISHABLE)
        st = apply_creation(st, basis.mode("down", "L", species=1))
        st = apply_creation(st, basis.mode("down", "R", species=2))
        out = substitute(st, beam_splitter(basis, "L", "R"))
        dist, n2 = detector_distribution(out)
        assert list(dist) == [((0, 0), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (1, 0))]
        assert list(dist.values()) == pytest.approx([0.25, 0.5, 0.25])
        assert n2 == norm_squared(out)

    def test_detector_distribution_norm_is_the_born_sum(self):
        # an unnormalized state: the probabilities are divided by the norm^2
        # it returns, which is bit for bit the one norm_squared sums
        st = apply_creation(vacuum(Statistics.BOSON), BASIS.mode("down", "L"))
        st = apply_creation(st, BASIS.mode("down", "L"))
        st = add(st, scale(apply_creation(vacuum(Statistics.BOSON), BASIS.mode("up", "R")), 0.3j))
        st = apply_creation(st, BASIS.mode("up", "U"))
        dist, n2 = detector_distribution(st)
        assert n2 == norm_squared(st) == pytest.approx(2.09)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-15)

    def test_probabilities_sum_to_one(self):
        st = vacuum(Statistics.FERMION)
        st = apply_creation(st, BASIS.mode("down", "L"))
        out = substitute(st, hybrid_beam_splitter(BASIS, "L", "U"))
        probs = detector_distribution(out)[0]
        total = sum(probs.get(m.pattern, 0.0) for m in out.terms)
        assert total == pytest.approx(1.0)


class TestStateHelpers:
    def test_add_mismatched_statistics_rejected(self):
        with pytest.raises(ValueError):
            add(vacuum(Statistics.BOSON), vacuum(Statistics.FERMION))

    def test_prune_drops_tiny_amplitudes(self):
        st = scale(vacuum(Statistics.BOSON), 1e-15)
        assert st.terms == {}


PICKLE_STEP = """
import pickle, sys
from fockflow.algebra import ModeBasis, Statistics, create
basis = ModeBasis(internals=("down", "up"), externals=("L", "R"))
mode = basis.mode("up", "R")
state = create(basis, Statistics.BOSON, [basis.index_of(mode)])
if sys.argv[1] == "dump":
    sys.stdout.buffer.write(pickle.dumps((state, mode)))
else:
    loaded, loaded_mode = pickle.loads(sys.stdin.buffer.read())
    assert loaded.terms == state.terms
    print(all(m in loaded.terms for m in state.terms), basis.index_of(loaded_mode))
"""


def test_unpickled_monomials_rehash_in_the_loading_process():
    # Mode and Monomial cache their hashes, and label names hash differently per process
    src = str(Path(__file__).resolve().parents[1] / "src")

    def step(seed, *argv, data=None):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        cmd = [sys.executable, "-c", PICKLE_STEP, *argv]
        return subprocess.run(cmd, env=env, input=data, capture_output=True, check=True).stdout

    assert step("2", "load", data=step("1", "dump")) == b"True 3\n"

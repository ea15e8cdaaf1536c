"""Unit tests for the second-quantized state algebra."""

import itertools
import math

import numpy as np
import pytest

from fockflow.algebra import (
    Mode,
    ModeBasis,
    Monomial,
    Statistics,
    UnknownMode,
    ZeroNorm,
    add,
    amplitude,
    apply_creation,
    canonicalize,
    norm_squared,
    outcome_probability,
    particle_count,
    scale,
    substitute,
    vacuum,
)
from fockflow.elements import ModeTransform, identity, hybrid_beam_splitter
from reference import reference_substitute

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
    return Monomial(tuple(sorted(counted.items(), key=lambda kv: kv[0].order_key())))


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

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ModeBasis(internals=("a", "a"), externals=("L",))

    def test_species_block_structure(self):
        two = ModeBasis(internals=("down", "up"), externals=("L", "R"), species=(1, 2))
        assert len(two) == 8
        assert two.modes[0].species == 1 and two.modes[4].species == 2


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
        # stored coefficient c against occupation 2 reads back as c*sqrt(2!)
        m = BASIS.mode("up", "D")
        st = scale(apply_creation(apply_creation(vacuum(Statistics.BOSON), m), m), 0.5)
        assert amplitude(st, Monomial(((m, 2),))) == pytest.approx(0.5 * math.sqrt(2))
        assert norm_squared(st) == pytest.approx(0.5)

    def test_absent_monomial_is_zero(self):
        st = apply_creation(vacuum(Statistics.FERMION), BASIS.mode("down", "R"))
        assert amplitude(st, mono(("down", "L"))) == 0

    def test_non_canonical_outcome_rejected(self):
        bad = Monomial(
            ((BASIS.mode("down", "R"), 1), (BASIS.mode("down", "L"), 1))
        )
        st = vacuum(Statistics.FERMION)
        with pytest.raises(ValueError):
            amplitude(st, bad)

    def test_single_particle_norm(self):
        st = apply_creation(vacuum(Statistics.FERMION), BASIS.mode("down", "R"))
        assert norm_squared(st) == pytest.approx(1.0)

    def test_zero_state_norm(self):
        st = scale(vacuum(Statistics.BOSON), 0.0)
        assert norm_squared(st) == 0.0


class TestSubstitute:
    def test_identity_transform_is_identity(self):
        st = apply_creation(vacuum(Statistics.FERMION), BASIS.mode("down", "R"))
        st = apply_creation(st, BASIS.mode("up", "U"))
        out = substitute(st, identity(BASIS))
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
            substitute(st, identity(small))

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
        assert outcome_probability(out, both_l) == pytest.approx(0.5)
        assert outcome_probability(out, both_r) == pytest.approx(0.5)

    def test_fermions_antibunch_on_plain_splitter(self):
        from fockflow.elements import beam_splitter

        st = vacuum(Statistics.FERMION)
        st = apply_creation(st, BASIS.mode("down", "L"))
        st = apply_creation(st, BASIS.mode("down", "R"))
        out = substitute(st, beam_splitter(BASIS, "L", "R"))
        assert outcome_probability(out, mono(("down", "L"), ("down", "R"))) == pytest.approx(1.0)

    @pytest.mark.parametrize("stats", list(Statistics))
    def test_non_ascending_species_stay_canonical(self, stats):
        # rank order (species ascending) differs from the basis enumeration here
        basis = ModeBasis(internals=("h", "v"), externals=("L", "R"), species=(2, 1))
        t = ModeTransform(basis, random_unitary(len(basis), seed=11))
        st = scale(vacuum(stats), 0.5)
        for modes in ([(2, "h", "L"), (1, "v", "R")], [(1, "h", "L"), (2, "v", "L"), (1, "h", "R")]):
            term = vacuum(stats)
            for sp, i, e in modes:
                term = apply_creation(term, basis.mode(i, e, species=sp))
            st = add(st, term)
        out = substitute(st, t)
        want = reference_substitute(st, t)
        assert all(m.is_canonical() for m in out.terms)
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
        out = substitute(st, ModeTransform(basis, u))
        assert norm_squared(out) == pytest.approx(1.0, abs=1e-12)
        index = {m.order_key(): k for k, m in enumerate(basis.modes)}
        got = {
            tuple(index[m.order_key()] for m in mono.ops()): abs(a) ** 2 * mono.norm_factor()
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


class TestOutcomeProbability:
    def test_zero_norm_guard(self):
        st = scale(vacuum(Statistics.BOSON), 0.0)
        with pytest.raises(ZeroNorm):
            outcome_probability(st, mono(("down", "L")))

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
        assert outcome_probability(st, pattern) == pytest.approx(1.0)

    def test_probabilities_sum_to_one(self):
        st = vacuum(Statistics.FERMION)
        st = apply_creation(st, BASIS.mode("down", "L"))
        out = substitute(st, hybrid_beam_splitter(BASIS, "L", "U"))
        total = sum(outcome_probability(out, m) for m in out.terms)
        assert total == pytest.approx(1.0)


class TestStateHelpers:
    def test_add_mismatched_statistics_rejected(self):
        with pytest.raises(ValueError):
            add(vacuum(Statistics.BOSON), vacuum(Statistics.FERMION))

    def test_prune_drops_tiny_amplitudes(self):
        st = scale(vacuum(Statistics.BOSON), 1e-15)
        assert st.terms == {}

    def test_particle_count(self):
        st = apply_creation(vacuum(Statistics.FERMION), BASIS.mode("down", "R"))
        assert particle_count(st) == 1
        assert particle_count(scale(st, 0.0)) is None
        mixed = add(st, vacuum(Statistics.FERMION))
        with pytest.raises(ValueError):
            particle_count(mixed)

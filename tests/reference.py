"""Slow, direct computations kept as test oracles.

``reference_substitute`` is the full distributive expansion of
``substitute``: every input monomial is expanded over the product of its
operators' columns (m^N terms for N operators on m modes), and each product
is re-ordered with ``canonicalize``.  It shares no code with
``algebra.substitute`` beyond ``canonicalize`` and the state types.

``reference_decode`` sums the signaling-decode probability exactly, with
rational arithmetic, over every readout string (2^n of them), where
``experiments.signaling_decode_exact`` uses the closed form.
"""

import itertools
from fractions import Fraction

from fockflow.algebra import VACUUM, StateVector, canonicalize


def reference_substitute(state, transform):
    basis = transform.basis
    columns = transform.columns
    out = {}
    for mono, amp in state.terms.items():
        if not mono.entries:
            out[VACUUM] = out.get(VACUUM, 0.0) + amp
            continue
        expansions = [columns[basis.index_of(m)] for m in mono.ops()]
        for combo in itertools.product(*expansions):
            weight = amp
            for _, v in combo:
                weight *= v
            sign, new = canonicalize([m for m, _ in combo], state.statistics)
            if new is None:
                continue
            out[new] = out.get(new, 0.0) + sign * weight
    return StateVector(state.statistics, out, state.prune_tolerance)


def reference_decode(dofs=None, copies=None) -> float:
    if dofs is not None:
        # Z branch always agrees and decodes correctly; X branch decodes
        # correctly unless its uniform readout happens to agree
        agree = Fraction(0)
        for v in range(2**dofs):
            if v == 0 or v == 2**dofs - 1:
                agree += Fraction(1, 2**dofs)
        return float(Fraction(1, 2) + Fraction(1, 2) * (1 - agree))
    per_copy_agree = Fraction(0)
    for v in range(4):
        if v in (0, 3):
            per_copy_agree += Fraction(1, 4)
    all_agree = Fraction(1)
    for _ in range(copies):
        all_agree *= per_copy_agree
    return float(1 - all_agree)

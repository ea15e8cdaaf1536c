"""The full distributive expansion of ``substitute``, kept as a test oracle.

Every input monomial is expanded over the product of its operators'
columns (m^N terms for N operators on m modes), and each product is
re-ordered with ``canonicalize``.  It shares no code with
``algebra.substitute`` beyond ``canonicalize`` and the state types.
"""

import itertools

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

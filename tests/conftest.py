import pytest

from hyperchrom import gindex


def _full_pair_order_map(P, n, budget=None):
    """Reference order-map search: one ORDER constraint per comparable
    pair x < y (every pair of ``above``), where ``_search_order_map``
    posts the cover pairs only.  The map is decoded the same way."""
    reps, orbit_of, shift_of = gindex._poset_orbit_structure(P)
    csp = gindex._EquivariantCSP(P.p, len(reps), n + 1)
    for x in range(len(P)):
        for y in P.above[x]:
            csp.add(orbit_of[x], shift_of[x], orbit_of[y], shift_of[y], gindex.ORDER)
    sol = csp.solve(budget)
    if sol is None:
        return None
    return {
        x: ((sol[orbit_of[x]][0] + shift_of[x]) % P.p, sol[orbit_of[x]][1])
        for x in range(len(P))
    }


@pytest.fixture
def full_pair_order_map():
    return _full_pair_order_map


def _uncored_xind(P, budget=None):
    """Reference Xind: the n-loop of ``_search_order_map`` on all of P,
    where ``xind_exact`` searches the beat-point core.  None if no n up
    to height - 1 has a map."""
    if len(P) == 0:
        return -1
    for n in range(P.height()):
        if gindex._search_order_map(P, n, budget) is not None:
            return n
    return None


@pytest.fixture
def uncored_xind():
    return _uncored_xind

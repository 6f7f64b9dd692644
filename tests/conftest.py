"""Shared fixture instances used across test modules.

These are the small worked instances the suite exercises repeatedly; names
describe their structure (message count / destination count / demand size).
"""

import pytest

from icx.model import Destination, FamilyTag, Instance, x_network_sets


def make_instance(num_messages, dests, family=None):
    return Instance(
        num_messages,
        tuple(Destination(i + 1, frozenset(w), frozenset(h)) for i, (w, h) in enumerate(dests)),
        family,
    )


def x_network_windows(K, L):
    """Destinations 1..K of the X-network window construction, for any K and
    L, tagged x-network K L; the family is only its K > L cases."""
    everything = set(range(1, K * L + 1))
    dests = [(wants, everything - window) for wants, window in (x_network_sets(K, L, k) for k in range(1, K + 1))]
    return make_instance(K * L, dests, FamilyTag.make("x-network", K=K, L=L))


def is_multiple_unicast(inst):
    """No message is desired at two destinations."""
    wanted = [m for d in inst.destinations for m in d.wants]
    return len(wanted) == len(set(wanted))


@pytest.fixture
def feasible_m4k3():
    """M=4, K=3, L=2; messages 3 and 4 align at destination 1; rate 1/3 works."""
    return make_instance(4, [({1, 2}, set()), ({1, 3}, {4}), ({2, 4}, {3})])


@pytest.fixture
def infeasible_m4k3():
    """M=4, K=3, L=2; a one-hop alignment chain collides at destination 3."""
    return make_instance(4, [({1, 3}, {2, 4}), ({2, 3}, set()), ({3, 4}, {2})])


@pytest.fixture
def chain_m5k5():
    """M=5, K=5, L=2; carries the two-hop chain 3-4-5 whose ends collide."""
    return make_instance(
        5,
        [
            ({1, 5}, {2}),
            ({1, 2}, {3}),
            ({2, 5}, {1, 4}),
            ({2, 4}, {1, 3, 5}),
            ({2, 3}, {1, 4, 5}),
        ],
    )


@pytest.fixture
def two_dest_m4():
    """M=4, K=2, L=2; no side information at 1, full at 2; sum rate is 1."""
    return make_instance(4, [({1, 2}, set()), ({3, 4}, {1, 2})])


@pytest.fixture
def pentagon_notation():
    """M=K=5 single-demand instance with two antidotes each (notation demo)."""
    return make_instance(
        5,
        [
            ({1}, {5, 2}),
            ({2}, {1, 4}),
            ({3}, {2, 4}),
            ({4}, {3, 5}),
            ({5}, {4, 1}),
        ],
    )


@pytest.fixture
def groupcast_m2k3():
    """M=2, K=3; the middle destination wants both messages."""
    return make_instance(2, [({1}, set()), ({1, 2}, set()), ({2}, set())])


@pytest.fixture
def tampered_antidotes():
    """Tagged antidotes K=5 U=1 D=1, but every destination holds every other
    message, so rate 1 is achievable and the family's "sum R <= 2" is not."""
    return make_instance(
        5,
        [({k}, {1, 2, 3, 4, 5} - {k}) for k in range(1, 6)],
        FamilyTag.make("neighboring-antidotes", K=5, U=1, D=1),
    )

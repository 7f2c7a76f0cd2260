import pytest

from netring import networks, rings


def make_ring(desc):
    return rings.construct_ring(desc)


@pytest.fixture(scope="session")
def gf2():
    return make_ring(rings.PrimeField(2))


@pytest.fixture(scope="session")
def gf3():
    return make_ring(rings.PrimeField(3))


@pytest.fixture(scope="session")
def gf4():
    return make_ring(rings.GaloisField(2, 2))


@pytest.fixture(scope="session")
def z4():
    return make_ring(rings.IntegersMod(4))


@pytest.fixture(scope="session")
def m2f2():
    return make_ring(rings.MatrixRing(rings.PrimeField(2), 2))


# hand-built miniature networks for oracle cross-checks --------------------

def wire2_network():
    """Two messages forced through a single edge: never solvable."""
    return networks.Network(["s", "t"], [("s", "t")],
                            [("m1", "s"), ("m2", "s")],
                            {"t": ("m1", "m2")})


def pair_network():
    """Two messages over two parallel edges: always solvable."""
    return networks.Network(["s", "t"], [("s", "t", 0), ("s", "t", 1)],
                            [("m1", "s"), ("m2", "s")],
                            {"t": ("m1", "m2")})


def chain_network():
    """One message relayed through an intermediate node."""
    return networks.Network(["s", "u", "t"], [("s", "u"), ("u", "t")],
                            [("m", "s")], {"t": ("m",)})


def starve_network():
    """Two messages through a two-hop single path: never solvable."""
    return networks.Network(["s", "v", "t"], [("s", "v"), ("v", "t")],
                            [("m1", "s"), ("m2", "s")],
                            {"t": ("m1", "m2")})


def chain2_network():
    """Two messages over a two-edge-wide, two-hop relay."""
    return networks.Network(
        ["s", "u", "t"],
        [("s", "u", 0), ("s", "u", 1), ("u", "t", 0), ("u", "t", 1)],
        [("m1", "s"), ("m2", "s")],
        {"t": ("m1", "m2")})


def cut_chain_network(k, chain, decoys=0):
    """k messages owned by s and demanded by t, which hears s only over a
    single-edge chain through `chain` relays; decoy receivers each demand
    one message over one edge off the chain.  Never solvable for k >= 2."""
    hops = ["s"] + [f"v{i}" for i in range(1, chain + 1)] + ["t"]
    extra = [f"d{i}" for i in range(1, decoys + 1)]
    msgs = [f"m{i}" for i in range(1, k + 1)]
    edges = list(zip(hops, hops[1:]))
    edges += [(hops[i % (len(hops) - 1)], d) for i, d in enumerate(extra)]
    demands = {"t": tuple(msgs)}
    demands.update({d: (msgs[i % k],) for i, d in enumerate(extra)})
    return networks.Network(hops + extra, edges, [(m, "s") for m in msgs],
                            demands)


def funnel_network():
    """Three messages through one edge into a relay with three edges to
    the receiver: t's in-degree suffices, but the cut s->u does not."""
    return networks.Network(
        ["s", "u", "t"],
        [("s", "u", 0), ("u", "t", 0), ("u", "t", 1), ("u", "t", 2)],
        [("m1", "s"), ("m2", "s"), ("m3", "s")],
        {"t": ("m1", "m2", "m3")})


def two_owner_network():
    """s1 owns m1 and has two edges to t; s2 owns m2 and m3 but reaches t
    only through the relay u, over single edges.  t's in-degree suffices
    for all three messages; the cut of s2's two is u->t alone."""
    return networks.Network(
        ["s1", "s2", "u", "t"],
        [("s1", "t", 0), ("s1", "t", 1), ("s1", "u", 0), ("s2", "u", 0),
         ("u", "t", 0)],
        [("m1", "s1"), ("m2", "s2"), ("m3", "s2")],
        {"t": ("m1", "m2", "m3")})

"""Message swaps in the rank search.

A swap of two messages that every position's tail carries both or neither
of, and that maps the multiset of receiver checks onto itself, maps
solutions to solutions with every position fixed.  Each claimable
position takes the swaps of its own messages as further generators of its
orbit group (solver module notes).  The search must reach the same verdict
and the same witness, byte for byte, as the search without swaps; only the
node counts may fall.
"""
import pytest

from netring import codes, solver
from netring.networks import (Network, choose_two_network, dim_n_network,
                              m_network, validate_network)
from netring.rings import (GaloisField, MatrixRing, PrimeField,
                           construct_ring, describe)
from netring.solver import SearchOptions, solve_scalar

RANK = SearchOptions(strategy="rank")
GF2, GF3 = PrimeField(2), PrimeField(3)
M2_GF2, M2_GF3 = MatrixRing(GF2, 2), MatrixRing(GF3, 2)
FIELDS_TO_7 = [GF2, GF3, GaloisField(2, 2), PrimeField(5), PrimeField(7)]
FIELDS_TO_16 = FIELDS_TO_7 + [GaloisField(2, 3), GaloisField(3, 2),
                              PrimeField(11), PrimeField(13),
                              GaloisField(2, 4)]


def _swaps(net: Network, normalize=True):
    """The network's swaps by position, as pairs of message names."""
    shape = solver._Shape(net, SearchOptions(normalize_forwarding=normalize))
    names = net.message_names
    return {i: {(names[a], names[b]) for a, b in pairs}
            for i, pairs in shape.swaps.items()}


def _m_network_demanding(**demands) -> Network:
    net = m_network()
    return Network(net.nodes, net.edges, net.messages,
                   {**net.demands, **demands})


def _split_source(relay=None) -> Network:
    """Choose-two(3) whose source s merges m1, owned by a, and m2, owned by
    b.  With a relay, w reads the relay node and c (owner of m3) and feeds
    t12 through x, so w -> x is a searched position."""
    nodes = ["a", "b", "c", "s", "v1", "v2", "v3", "w", "x",
             "t12", "t13", "t23"]
    edges = [("a", "s"), ("b", "s"), ("s", "v1"), ("s", "v2"), ("s", "v3"),
             ("c", "w"), ("w", "x"), ("x", "t12")]
    pairs = ((1, 2), (1, 3), (2, 3))
    for i, j in pairs:
        edges += [(f"v{i}", f"t{i}{j}"), (f"v{j}", f"t{i}{j}")]
    if relay is not None:
        edges.append((relay, "w"))
    return Network(nodes, edges, [("m1", "a"), ("m2", "b"), ("m3", "c")],
                   {f"t{i}{j}": ("m1", "m2") for i, j in pairs})


# --- detection -------------------------------------------------------------

def test_m_network_swaps_each_sources_messages():
    # position 0 is 1 -> 3 (W, X), position 2 is 2 -> 4 (Y, Z); 1 -> 4 and
    # 2 -> 5 share their sources' messages with them and are not claimed
    assert _swaps(m_network()) == {0: {("W", "X")}, 2: {("Y", "Z")}}


def test_dim_n_3_swaps_any_two_messages_of_a_source():
    net = dim_n_network(3)
    found = _swaps(net)
    assert len(found) == 3
    for i, pairs in found.items():
        bundle = solver._Shape(net, RANK).bundles[i]
        src = net.compiled().edges[bundle[0]].tail
        names = sorted(m for m, owner in net.messages if owner == src)
        assert pairs == {(a, b) for a in names for b in names if a < b}


@pytest.mark.parametrize("n", range(3, 9))
def test_choose_two_swaps_its_two_messages(n):
    assert _swaps(choose_two_network(n)) == {0: {("m1", "m2")}}


def test_a_demand_that_tells_the_messages_apart_has_no_swap():
    # receivers 8 and 9 both demand (X, Y): W <-> X would send 6's (W, Y)
    # to (X, Y) twice but 9's to (W, Y) once, and Y <-> Z sends 8's
    # (X, Y) to (X, Z), which no receiver demands
    net = _m_network_demanding(**{"9": ("X", "Y")})
    assert not validate_network(net)
    assert _swaps(net) == {}


def test_a_relay_that_reads_one_message_has_no_swap():
    # every check still maps onto itself, but w -> x carries m1 without m2
    assert _swaps(_split_source()) == {0: {("m1", "m2")}}
    assert _swaps(_split_source(relay="s")) == {0: {("m1", "m2")}}
    assert _swaps(_split_source(relay="a")) == {}


def _carried_early() -> Network:
    """g reads m1 and m2 through forwarding edges and m3, m4 through the
    position p -> g; its bundle to t is searched before s -> v1, since s
    reaches m1 only through h."""
    return Network(
        ["a", "b", "p", "h", "s", "g", "v1", "v2", "t", "t2"],
        [("a", "g"), ("b", "g"), ("p", "g"), ("g", "t"), ("g", "t", 1),
         ("a", "h"), ("h", "s"), ("b", "s"), ("s", "v1"), ("s", "v2"),
         ("v1", "t2"), ("v2", "t2")],
        [("m1", "a"), ("m2", "b"), ("m3", "p"), ("m4", "p")],
        {"t": ("m3",), "t2": ("m1", "m2")})


def test_a_message_an_earlier_position_carries_is_not_swapped():
    # every tail holds m1 and m2 alike and every check maps onto itself,
    # but swapping them would move the value of g -> t
    net = _carried_early()
    assert not validate_network(net)
    shape = solver._Shape(net, RANK)
    assert shape.tails == [(0b1100, ()), (0b0011, (0,)), (0b0011, ()),
                           (0b0011, ())]
    assert [i for i, _ in shape.claimable] == [0, 2]
    assert shape.swaps == {}


def test_no_swaps_without_a_claimable_position_of_two_messages(monkeypatch):
    # detection returns before keying any check
    keyed = []
    key = solver._check_key
    monkeypatch.setattr(solver, "_check_key",
                        lambda check: keyed.append(check) or key(check))
    net = Network(["s1", "s2", "u", "t"],
                  [("s1", "u"), ("s2", "u"), ("u", "t"), ("u", "t", 1)],
                  [("m0", "s1"), ("m1", "s2")], {"t": ("m0", "m1")})
    assert solver._Shape(net, RANK).swaps == {}
    assert keyed == []


# --- against the search without swaps ---------------------------------------

def _fresh(net: Network) -> Network:
    return Network(net.nodes, net.edges, net.messages, net.demands)


def _without_swaps(monkeypatch, net, ring, opts=RANK):
    """The search whose orbit groups hold no swap: a fresh copy of net,
    whose shape is built while _swaps finds none."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_swaps", lambda *args: {})
        full = solve_scalar(_fresh(net), ring, opts)
    assert full.stats["swaps"] == 0
    return full


def _prunes(monkeypatch, net, ring, opts=RANK):
    """Same verdict and witness as the search without swaps, in no more
    nodes; the search with swaps."""
    res = solve_scalar(net, ring, opts)
    full = _without_swaps(monkeypatch, net, ring, opts)
    assert res.status == full.status
    assert res.stats["nodes"] <= full.stats["nodes"]
    if full.solved:
        assert codes.code_to_json(res.code) == codes.code_to_json(full.code)
        assert codes.verify_solution(net, res.code).solved
    else:
        assert res.code is None
    return res


@pytest.mark.parametrize("desc", FIELDS_TO_16 + [M2_GF2, M2_GF3],
                         ids=describe)
def test_m_network_against_the_search_without_swaps(monkeypatch, desc):
    ring = construct_ring(desc)
    res = _prunes(monkeypatch, m_network(), ring)
    # solvable over M_2(GF(q)) but over no field
    assert res.solved == isinstance(desc, MatrixRing)
    assert res.stats["swaps"] == 2


@pytest.mark.parametrize("desc", FIELDS_TO_7, ids=describe)
@pytest.mark.parametrize("demands", [("X", "Y"), ("W", "X"), ("Z",)])
def test_near_misses_against_the_search_without_swaps(monkeypatch, desc,
                                                      demands):
    # each of these demands at receiver 9 breaks both of the M-network's
    # swaps; a search that kept them would lose the code a field has
    net = _m_network_demanding(**{"9": demands})
    res = _prunes(monkeypatch, net, construct_ring(desc))
    assert res.solved and res.stats["swaps"] == 0


@pytest.mark.parametrize("desc", [GF2, GF3], ids=describe)
@pytest.mark.parametrize("relay", [None, "s", "a"])
def test_split_source_against_the_search_without_swaps(monkeypatch, desc,
                                                       relay):
    # choose-two(3) is scalar-solvable over every field, and the relay
    # only adds an input to t12
    assert _prunes(monkeypatch, _split_source(relay),
                   construct_ring(desc)).solved


@pytest.mark.parametrize("desc", [GF2, GF3, M2_GF2], ids=describe)
def test_early_carrier_against_the_search_without_swaps(monkeypatch, desc):
    _prunes(monkeypatch, _carried_early(), construct_ring(desc))


@pytest.mark.parametrize("desc", FIELDS_TO_7, ids=describe)
@pytest.mark.parametrize("n", range(3, 9))
def test_choose_two_against_the_search_without_swaps(monkeypatch, n, desc):
    ring = construct_ring(desc)
    res = _prunes(monkeypatch, choose_two_network(n), ring)
    assert res.solved == (ring.size >= n - 1)
    if desc == GF2:
        # the claimable first relay edge is a twin, so it keeps no swap
        assert res.stats["swaps"] == 0
        assert res.stats["nodes"] == (5 if n == 3 else 14)


@pytest.mark.parametrize("n", range(3, 7))
def test_vector_choose_two_against_the_search_without_swaps(monkeypatch, n):
    res = _prunes(monkeypatch, choose_two_network(n), construct_ring(M2_GF2))
    assert res.solved == (n <= 5) and res.stats["swaps"] == 1


@pytest.mark.parametrize("desc", FIELDS_TO_7[:4] + [M2_GF2], ids=describe)
@pytest.mark.parametrize("n", (2, 3))
def test_dim_n_against_the_search_without_swaps(monkeypatch, n, desc):
    res = _prunes(monkeypatch, dim_n_network(n), construct_ring(desc))
    assert res.stats["swaps"] == n * (n * (n - 1) // 2)
    # dim-n(n) is n-dim vector solvable over every field, and never less
    assert res.solved == (n == 2 and desc == M2_GF2)


@pytest.mark.parametrize("net,desc", [
    (m_network(), PrimeField(5)), (m_network(), GF2),
    (dim_n_network(3), GF2), (dim_n_network(3), GF3),
    (choose_two_network(6), GF3)],
    ids=["m/GF(5)", "m/GF(2)", "dim3/GF(2)", "dim3/GF(3)", "c2-6/GF(3)"])
def test_shards_add_up_to_the_whole_search(monkeypatch, net, desc):
    ring = construct_ring(desc)
    whole = _prunes(monkeypatch, net, ring)
    assert not whole.solved and whole.stats["swaps"] > 0
    parts = [solve_scalar(net, ring, SearchOptions(
        strategy="rank", shards=3, shard_index=i)) for i in range(3)]
    assert {res.status for res in parts} == {"exhausted-unsolvable"}
    for key in ("nodes", "orbit_skips"):
        assert sum(res.stats[key] for res in parts) == whole.stats[key]


# --- the pinned node counts ------------------------------------------------

@pytest.mark.parametrize("net,desc,most", [
    (m_network(), GaloisField(2, 4), 100),
    (m_network(), M2_GF2, 9_379),
    (dim_n_network(3), GF2, 60),
    (dim_n_network(3), GF3, 60),
    (dim_n_network(3), GaloisField(2, 2), 60),
    (dim_n_network(3), M2_GF2, 1_500)],
    ids=["m/GF(2^4)", "m/M_2(GF(2))", "dim3/GF(2)", "dim3/GF(3)",
         "dim3/GF(2^2)", "dim3/M_2(GF(2))"])
def test_swaps_bound_the_node_counts(net, desc, most):
    res = solve_scalar(net, construct_ring(desc), RANK)
    assert res.stats["nodes"] <= most


@pytest.mark.parametrize("n", range(4, 9))
def test_choose_two_over_gf2_keeps_its_twins(n):
    res = solve_scalar(choose_two_network(n), construct_ring(GF2), RANK)
    assert res.stats["nodes"] == 14 and res.stats["twins"] == n - 1

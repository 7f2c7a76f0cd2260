"""Position symmetry in the rank search.

Twin positions (interchangeable searched edges or bundles: same tail and
cap, read by the same edges, and a swap that maps the receiver checks onto
themselves) are walked in non-decreasing candidate order.  The search must reach the same
verdict and the same witness, byte for byte, as the search that walks every
order, since the lex-least solution is already sorted; only the node counts
may fall.
"""
import pytest

import bruteforce
from netring import codes, solver
from netring.networks import Network, choose_two_network, dim_n_network
from netring.rings import (GaloisField, MatrixRing, PrimeField,
                           construct_ring, describe)
from netring.solver import SearchOptions, solve_scalar

RANK = SearchOptions(strategy="rank")
FIELDS = [PrimeField(2), PrimeField(3), GaloisField(2, 2), PrimeField(5)]


def _without_twins(monkeypatch, net, ring, opts=RANK):
    """The search that walks every order: on a fresh copy of the network,
    since net keeps its compiled shape and twin maps from earlier searches
    and would never call the patched _twins."""
    fresh = Network(net.nodes, net.edges, net.messages, net.demands)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_twins", lambda *args: {})
        ref = solve_scalar(fresh, ring, opts)
    assert ref.stats["twins"] == 0
    return ref


def _same_search(res, ref):
    """Same verdict and witness, and no more nodes than the full walk."""
    assert res.status == ref.status
    assert res.stats["nodes"] <= ref.stats["nodes"]
    if ref.solved:
        assert codes.code_to_json(res.code) == codes.code_to_json(ref.code)
    else:
        assert res.code is None


@pytest.mark.parametrize("desc", FIELDS, ids=describe)
@pytest.mark.parametrize("n", range(3, 8))
def test_choose_two_threshold_with_twins(monkeypatch, n, desc):
    # choose-two(n) is scalar-solvable over GF(q) exactly when q >= n - 1;
    # every relay edge but a claimed first one is a twin of the one before
    net, ring = choose_two_network(n), construct_ring(desc)
    res = solve_scalar(net, ring, RANK)
    assert res.status == ("solved" if ring.size >= n - 1
                          else "exhausted-unsolvable")
    assert res.stats["twins"] >= n - 2
    _same_search(res, _without_twins(monkeypatch, net, ring))
    if res.solved:
        assert bruteforce.check_code(net, res.code)
    slots = 2 * n     # two messages into each relay edge
    if ring.size ** slots <= 1 << 14:
        raw = solve_scalar(net, ring, SearchOptions(strategy="exhaustive"))
        assert raw.status == res.status


@pytest.mark.parametrize("n", range(3, 7))
def test_vector_choose_two_threshold_with_twins(monkeypatch, n):
    # 2-dim vector solvable over GF(2) exactly when 4 >= n - 1
    net = choose_two_network(n)
    ring = construct_ring(MatrixRing(PrimeField(2), 2))
    res = solve_scalar(net, ring, RANK)
    assert res.status == ("solved" if n <= 5 else "exhausted-unsolvable")
    assert res.stats["twins"] == n - 2
    _same_search(res, _without_twins(monkeypatch, net, ring))


def test_bundles_are_one_position():
    # dim-n(3): the parallel edges a_i -> b_i, once twins, are one position
    # of cap 2 each, which shares its tail with a_i -> z (cap 1) but not its
    # cap; the b_i -> r bundles forward and each z -> r is free
    net, ring = dim_n_network(3), construct_ring(PrimeField(2))
    res = solve_scalar(net, ring, RANK)
    assert (res.stats["searched_edges"], res.stats["positions"],
            res.stats["twins"]) == (9, 6, 0)
    # without forwarding, each b_i -> r bundle is one position too, and
    # each receiver's edges are all searched (it has more than one)
    raw = solve_scalar(net, ring, SearchOptions(strategy="rank",
                                                normalize_forwarding=False,
                                                node_budget=100))
    assert (raw.stats["searched_edges"], raw.stats["positions"]) == \
        (2 * 3 + 3 + 27 * (2 * 3 + 1), 3 + 3 + 27 * (3 + 1))


def _bundled_choose_two(n: int) -> Network:
    """choose-two(n) with three messages at s, two parallel edges from s
    to each relay and from each relay to each of its receivers, which
    demand all three."""
    base = choose_two_network(n)
    edges = [(e.tail, e.head, o) for e in base.edges for o in (0, 1)]
    messages = base.messages + (("m3", "s"),)
    demands = {r: ("m1", "m2", "m3") for r in base.demands}
    return Network(base.nodes, edges, messages, demands)


@pytest.mark.parametrize("desc", FIELDS[:2], ids=describe)
def test_bundles_of_one_cap_are_twins(monkeypatch, desc):
    # each relay's bundle is one position of cap 2 in a 3-dimensional
    # tail, the relays' bundles forward, and every receiver needs two
    # different planes: solvable while there are enough planes, 7 over
    # GF(2); every bundle but a claimed first one is a twin of the one
    # before
    for n in (4, 8):
        net, ring = _bundled_choose_two(n), construct_ring(desc)
        res = solve_scalar(net, ring, RANK)
        assert res.stats["positions"] == n and res.stats["twins"] >= n - 2
        planes = ring.size ** 2 + ring.size + 1
        assert res.status == ("solved" if n <= planes
                              else "exhausted-unsolvable")
        _same_search(res, _without_twins(monkeypatch, net, ring))
        if res.solved:
            assert codes.verify_solution(net, res.code).solved


def _crossed_network(first: str, second: str) -> Network:
    """s owns m1 and m2 and feeds three relays; v0's edge comes first and
    takes the message symmetry, v1 and v2 each forward to one receiver,
    which demands `first` and `second`."""
    return Network(
        ["s", "v0", "v1", "v2", "t0", "t1", "t2"],
        [("s", "v0"), ("s", "v1"), ("s", "v2"), ("v0", "t0"),
         ("v1", "t0"), ("v2", "t0"), ("v1", "t1"), ("v2", "t2")],
        [("m1", "s"), ("m2", "s")],
        {"t0": ("m1", "m2"), "t1": (first,), "t2": (second,)})


@pytest.mark.parametrize("desc", FIELDS[:3], ids=describe)
@pytest.mark.parametrize("demands", [("m1", "m2"), ("m2", "m1")],
                         ids=["m1-m2", "m2-m1"])
def test_same_tail_positions_with_other_demands_are_not_twins(monkeypatch,
                                                              desc, demands):
    # s -> v1 and s -> v2 share their tail and their readers, but their
    # receivers want different messages; in one order of the demands the
    # only solutions put the larger candidate on the earlier edge, which a
    # twin walk would skip
    net, ring = _crossed_network(*demands), construct_ring(desc)
    res = solve_scalar(net, ring, RANK)
    assert res.stats["twins"] == 0
    want = solve_scalar(net, ring, SearchOptions(strategy="exhaustive",
                                                 normalize_forwarding=False))
    assert res.status == want.status == "solved"
    assert bruteforce.check_code(net, res.code)
    _same_search(res, _without_twins(monkeypatch, net, ring))


@pytest.mark.parametrize("desc", FIELDS[:3], ids=describe)
def test_same_tail_positions_with_equal_demands_are_twins(monkeypatch, desc):
    net, ring = _crossed_network("m1", "m1"), construct_ring(desc)
    res = solve_scalar(net, ring, RANK)
    assert res.stats["twins"] == 1
    assert res.solved and bruteforce.check_code(net, res.code)
    _same_search(res, _without_twins(monkeypatch, net, ring))


def test_shards_share_out_the_twin_walk(monkeypatch):
    # the first position heads a twin class over GF(2); its candidates are
    # shared out and each later twin starts from the shard's value
    net, ring = choose_two_network(6), construct_ring(PrimeField(2))
    whole = solve_scalar(net, ring, RANK)
    assert whole.status == "exhausted-unsolvable"
    parts = [solve_scalar(net, ring, SearchOptions(strategy="rank", shards=3,
                                                   shard_index=i))
             for i in range(3)]
    assert all(res.status == "exhausted-unsolvable" for res in parts)
    assert sum(res.stats["nodes"] for res in parts) == whole.stats["nodes"]

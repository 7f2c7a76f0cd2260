"""Capacity forwarding, bundle positions and conflict-directed backjumping.

A bundle of parallel edges with at least as many edges as its tail has
inputs forwards those inputs, in both engines; a searched bundle is one
rank position whose basis the witness splits over its edges; and a rank
search that runs out of candidates at a position jumps back to the
deepest position its failures read.  dim-n(3), which no field search
could settle before, is settled over the small fields and M_2(GF(2)).
"""
import sys

import pytest

from conftest import chain2_network
from netring import codes, solver
from netring.networks import (Network, choose_two_network, dim_n_network,
                              m_network)
from netring.rings import (GaloisField, MatrixRing, PrimeField,
                           UpperTriangular, construct_ring, describe)
from netring.solver import SearchOptions, _Plan, solve_scalar

GF2, GF3, GF4 = PrimeField(2), PrimeField(3), GaloisField(2, 2)


@pytest.mark.parametrize("desc", [GF2, GF3, GF4], ids=describe)
def test_dim_n_3_is_settled_over_small_fields(desc):
    res = solve_scalar(dim_n_network(3), construct_ring(desc),
                       SearchOptions(strategy="rank"))
    assert res.status == "exhausted-unsolvable"
    assert res.stats["nodes"] <= 1000
    assert res.stats["positions"] == 6 and res.stats["backjumps"] > 0


def test_dim_n_3_is_settled_over_m2_gf2():
    res = solve_scalar(dim_n_network(3), construct_ring(MatrixRing(GF2, 2)))
    assert res.status == "exhausted-unsolvable"
    assert res.stats["method"] == "direct search as M_2(GF(2))"


@pytest.mark.parametrize("desc", [GF3, GF4, PrimeField(5)], ids=describe)
def test_m_network_jumps_over_the_mixing_edges(desc):
    # each receiver fails its dimension test on 1 -> 3 and 2 -> 5 alone,
    # so a dead end at 2 -> 5 jumps back over 2 -> 4 and 1 -> 4 to 1 -> 3
    res = solve_scalar(m_network(), construct_ring(desc))
    assert res.status == "exhausted-unsolvable"
    assert res.stats["positions"] == 4 and res.stats["backjumps"] > 0


def _decided(search):
    """The search's result and the receiver tests it decided, in order, as
    (test, receiver, fixed span, free span or -1 | -2): the rank engine's
    calls of dim_failed and reach_failed, seen through a profile hook."""
    tests = []

    def hook(frame, event, _):
        code = frame.f_code
        if (event == "call" and code.co_filename == solver.__file__
                and code.co_name in ("dim_failed", "reach_failed")):
            tests.append((code.co_name, *frame.f_locals["key"]))
    sys.setprofile(hook)
    try:
        res = search()
    finally:
        sys.setprofile(None)
    return res, tests


@pytest.mark.parametrize("net,desc", [
    (m_network, MatrixRing(GF2, 2)), (m_network, MatrixRing(GF3, 2)),
    (m_network, GF4), (lambda: dim_n_network(2), GF3),
    (lambda: choose_two_network(5), GF4)],
    ids=["m/M_2(GF(2))", "m/M_2(GF(3))", "m/GF(4)", "dim-n(2)/GF(3)",
         "choose-two(5)/GF(4)"])
def test_each_dimension_test_is_decided_once(net, desc):
    # a dimension test reads the receiver's fixed span alone and is kept
    # under it, whatever the free edge's tail holds: it is decided once per
    # (receiver, fixed span) in a search, a reach test once per (receiver,
    # fixed span, free span), and receiver_checks counts them all
    res, tests = _decided(lambda: solve_scalar(
        net(), construct_ring(desc), SearchOptions(strategy="rank")))
    assert len(tests) == res.stats["receiver_checks"] > 0
    dims = [(j, w0) for name, j, w0, _ in tests if name == "dim_failed"]
    assert dims and len(set(dims)) == len(dims)
    assert len(set(tests)) == len(tests)


def test_plan_forwards_bundles_as_wide_as_their_tails_inputs():
    # s owns two messages: its three edges to t forward m1, m2, m1; the
    # single edge s -> u does not forward, u's two edges to t do
    net = Network(["s", "u", "t"],
                  [("s", "t", 0), ("s", "t", 1), ("s", "t", 2),
                   ("s", "u", 0), ("u", "t", 0), ("u", "t", 1)],
                  [("m1", "s"), ("m2", "s")], {"t": ("m1", "m2")})
    plan = _Plan(net, SearchOptions())
    # the plan holds edge ids and int inputs: ~0 is m1, ~1 is m2
    edges = net.compiled().edges
    su = [e for e in net.edges if e.head == "u"][0]
    assert {str(edges[e]): inp for e, inp in plan.normalized.items()} == {
        "s->t": ~0, "s->t#1": ~1, "s->t#2": ~0,
        "u->t": edges.index(su), "u->t#1": edges.index(su)}
    assert [edges[e] for e in plan.outer] == [su]
    assert not _Plan(net, SearchOptions(normalize_forwarding=False)).normalized
    # unforwarded, t's edges are searched, a bundle of three, one edge and
    # a bundle of two
    res = solve_scalar(net, construct_ring(GF2),
                       SearchOptions(strategy="rank",
                                     normalize_forwarding=False))
    assert (res.stats["searched_edges"], res.stats["positions"]) == (6, 3)


@pytest.mark.parametrize("desc,strategy", [
    (GF3, "rank"), (GF3, "exhaustive"), (MatrixRing(GF2, 2), "rank"),
    (UpperTriangular(GF2, 2), "exhaustive")],
    ids=lambda x: x if isinstance(x, str) else describe(x))
def test_forwarded_edges_carry_a_unit_coefficient(desc, strategy):
    # chain2: both bundles forward, so the code is fixed whatever the ring
    net, ring = chain2_network(), construct_ring(desc)
    res = solve_scalar(net, ring, SearchOptions(strategy=strategy))
    assert res.solved and codes.verify_solution(net, res.code).solved
    for e in net.edges:
        want = tuple(ring.one if i == e.ordinal else 0 for i in range(2))
        assert res.code.edge_coeffs[e] == want, e


@pytest.mark.parametrize("desc", [GF2, GF3, MatrixRing(GF2, 2)],
                         ids=describe)
def test_searched_bundle_is_split_over_its_edges(desc):
    # three messages into two parallel edges: one position of cap 2k, whose
    # basis of 2k rows goes k rows to an edge
    net = Network(["s", "t"], [("s", "t", 0), ("s", "t", 1)],
                  [("m1", "s"), ("m2", "s"), ("m3", "s")],
                  {"t": ("m1", "m3")})
    ring = construct_ring(desc)
    res = solve_scalar(net, ring, SearchOptions(strategy="rank"))
    assert res.solved
    assert (res.stats["searched_edges"], res.stats["positions"]) == (2, 1)
    assert codes.verify_solution(net, res.code).solved


def test_positions_read_twice_by_a_receiver_count_once():
    # t hears s -> v both directly (fixed) and through its free edge out
    # of w (w also hears s2), so both of its tests read that one position:
    # the dead end jumps back to nowhere, not to a position past the last
    net = Network(["s", "s2", "v", "w", "t"],
                  [("s", "v"), ("v", "t"), ("v", "w"), ("s2", "w"),
                   ("w", "t")],
                  [("m0", "s"), ("m1", "s"), ("x", "s2")],
                  {"t": ("m0", "m1")})
    res = solve_scalar(net, construct_ring(GF2),
                       SearchOptions(strategy="rank"))
    assert res.status == "exhausted-unsolvable"
    assert res.stats["positions"] == 1


def _mirrored_network() -> Network:
    """Five positions, each a line in a source's two messages: a -> x0,
    a -> x1, s -> v0, s -> v2 and z -> y1.  Every receiver hears y1, and
    one of v0 and v2, each v with each x in mirrored pairs, so s -> v2
    is a twin of s -> v0."""
    edges = [("a", "x0"), ("a", "x1"), ("s", "v0"), ("s", "v2"),
             ("z", "y1")]
    demands = {}
    for t, heard, want in [("t1", ["v2"], "m1"), ("t2", ["v0"], "m1"),
                           ("t3", ["x0", "v0"], "a1"),
                           ("t5", ["x0", "v2"], "a1"),
                           ("t6", ["x1", "v2"], "m1"),
                           ("t7", ["x1", "v0"], "m1")]:
        edges += [(u, t) for u in ["y1"] + heard]
        demands[t] = (want,)
    nodes = ["a", "s", "z", "x0", "x1", "y1", "v0", "v2"] + sorted(demands)
    messages = [(f"{m}{i}", src) for m, src in
                (("a", "a"), ("m", "s"), ("z", "z")) for i in (0, 1)]
    return Network(nodes, edges, messages, demands)


def test_a_twin_dead_end_goes_back_through_its_predecessor():
    # v2's candidates start at v0's value, so when they run out the search
    # must go back to v0, whose own smaller values failed on the x
    # positions; jumping past v0 would drop those reasons and stop with a
    # solution left to find
    net, ring = _mirrored_network(), construct_ring(GF2)
    res = solve_scalar(net, ring, SearchOptions(strategy="rank"))
    assert res.stats["twins"] == 1 and res.stats["backjumps"] > 0
    raw = solve_scalar(net, ring, SearchOptions(strategy="exhaustive",
                                                normalize_forwarding=False))
    assert res.status == raw.status == "solved"
    assert codes.verify_solution(net, res.code).solved

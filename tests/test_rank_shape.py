"""The rank search's compiled shape.

The part of a rank search that depends on the network alone (the plan,
the bundles, the resolved sources, the receiver schedule, the claimable
positions and the twin map) is built once per network and forwarding
setting and kept on the Network; each search maps the shape's message
sets to span ids over its own field.  Searching one Network object over
ring after ring must therefore walk the very tree that a fresh Network
per ring walks: same verdict, same witness, same counts.
"""
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import bruteforce
import test_generated as gen
import test_twins as twin_cases
from netring import codes, solver
from netring.networks import (Network, choose_two_network, dim_n_network,
                              m_network)
from netring.rings import (GaloisField, MatrixRing, PrimeField,
                           construct_ring, describe)
from netring.solver import (SearchOptions, smallest_ring_search, solve_scalar,
                            solve_vector)

RANK = SearchOptions(strategy="rank")
RINGS = [construct_ring(d) for d in (
    PrimeField(2), PrimeField(3), GaloisField(2, 2), PrimeField(5),
    PrimeField(7), MatrixRing(PrimeField(2), 2))]
COUNTS = ("nodes", "receiver_checks", "memo_hits", "orbit_skips", "twins",
          "backjumps", "searched_edges", "positions")
NETWORKS = {**{f"choose-two({n})": (lambda n=n: choose_two_network(n))
               for n in range(3, 8)},
            "M-network": m_network, "dim-n(2)": lambda: dim_n_network(2)}


def _fresh(net: Network) -> Network:
    return Network(net.nodes, net.edges, net.messages, net.demands)


def _same_search(res, ref):
    assert res.status == ref.status
    assert {k: res.stats[k] for k in COUNTS} == \
        {k: ref.stats[k] for k in COUNTS}
    if ref.solved:
        assert codes.code_to_json(res.code) == codes.code_to_json(ref.code)
    else:
        assert res.code is None


def _over_every_ring(net: Network, opts=RANK):
    for i, ring in enumerate(RINGS):
        res = solve_scalar(net, ring, opts)
        assert res.stats["shape"] == ("built" if i == 0 else "reused")
        # GF(2) builds the shape with its one twin map; the rings after
        # it build nothing
        compile_s = res.stats["phase_seconds"]["compile"]
        assert compile_s > 0.0 if i == 0 else compile_s == 0.0
        _same_search(res, solve_scalar(_fresh(net), ring, opts))


@pytest.mark.parametrize("name", NETWORKS)
def test_one_network_searched_over_every_ring(name):
    _over_every_ring(NETWORKS[name]())


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(gen.bundled_networks().filter(lambda net: net.demands))
def test_one_drawn_network_searched_over_every_ring(net):
    _over_every_ring(net, SearchOptions(strategy="rank", node_budget=20_000))


def _unique_claimable_twins(shape):
    """The twin map with the claimable positions claimed, as _twins once
    built it: on tails where each claimable position's tail is unique, so
    that no position twins it."""
    tails = list(shape.tails)
    for i, _ in shape.claimable:
        tails[i] = (-1 - i, ())
    return solver._twins(tails, shape.sizes, shape.checks)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(st.one_of(gen.bundled_networks(), gen.networks(shared_source=True),
                 gen.mirrored_networks()),
       st.booleans())
@example(choose_two_network(4), True)
def test_claimable_positions_leave_the_twin_map_whole_classes(net, normalize):
    # a claimable position leads its class, so dropping the entries that
    # point at it leaves the rest of the class as one class (choose-two's
    # source edge leads the class of its relay edges)
    shape = solver._Shape(_fresh(net), SearchOptions(
        strategy="rank", normalize_forwarding=normalize))
    claimable = {i for i, _ in shape.claimable}
    assert not claimable & set(shape.twins)
    dropped = {i: p for i, p in shape.twins.items() if p not in claimable}
    event("a claimable position has twins" if dropped != shape.twins
          else "no claimable position has twins")
    assert dropped == _unique_claimable_twins(shape)


def test_phases_are_timed():
    net = choose_two_network(5)
    res = solve_scalar(net, RINGS[2], RANK)
    phases = res.stats["phase_seconds"]
    assert res.solved and set(phases) == {"compile", "search", "witness",
                                          "verify"}
    assert all(phases[p] > 0 for p in phases)
    # GF(3) claims what GF(4) claimed: the shape and its twin map are
    # reused, so nothing is compiled
    res = solve_scalar(net, RINGS[1], RANK)
    assert res.status == "exhausted-unsolvable"
    assert res.stats["shape"] == "reused"
    assert res.stats["phase_seconds"]["compile"] == 0.0
    assert res.stats["phase_seconds"]["witness"] == 0.0


def test_the_shape_is_kept_per_forwarding_setting():
    # choose-two(6) normalized searches its six relay edges; without
    # forwarding normalization every one of its 36 edges is searched
    net, gf3 = choose_two_network(6), RINGS[1]
    normalized = solve_scalar(net, gf3, RANK)
    raw = solve_scalar(net, gf3, SearchOptions(strategy="rank",
                                               normalize_forwarding=False))
    assert normalized.stats["searched_edges"] == 6
    assert raw.stats["searched_edges"] == 36
    assert raw.stats["shape"] == "built"
    again = solve_scalar(net, gf3, RANK)
    assert again.stats["shape"] == "reused"
    _same_search(again, normalized)


@pytest.fixture
def built(monkeypatch):
    """Counts of shapes built and of _twins calls: one twin map per
    shape, which every field and dimension reads (without the claimable
    positions where G_B is nontrivial)."""
    counts = {"shapes": 0, "twins": 0}
    shape, twins = solver._Shape, solver._twins

    def counted_shape(*args):
        counts["shapes"] += 1
        return shape(*args)

    def counted_twins(*args):
        counts["twins"] += 1
        return twins(*args)
    monkeypatch.setattr(solver, "_Shape", counted_shape)
    monkeypatch.setattr(solver, "_twins", counted_twins)
    return counts


def test_a_sweep_builds_one_shape(built):
    # GF(2), GF(3), GF(4) and GF(5) are searched; GF(5) solves; GF(2)
    # claims nothing and the others claim the same positions
    report = smallest_ring_search(choose_two_network(6), max_size=16)
    assert [v.name for v in report.verdicts] == ["GF(2)", "GF(3)",
                                                 "GF(2^2)", "GF(5)"]
    assert [v.name for v in report.winners] == ["GF(5)"]
    assert built == {"shapes": 1, "twins": 1}


def test_a_vector_search_builds_one_shape(built):
    # dimensions 1, 2 and 3 are each searched: 1 fails, and 3 is no sum
    # of solved smaller dimensions; dimensions 2 and 3 claim the same
    # positions
    res = solve_vector(choose_two_network(4), RINGS[0], 3)
    assert res.solved and res.stats["method"] == \
        "direct search as M_3(GF(2))"
    assert built == {"shapes": 1, "twins": 1}


def test_shards_build_one_shape(built):
    net, gf2 = choose_two_network(6), RINGS[0]
    for i in range(3):
        res = solve_scalar(net, gf2, SearchOptions(strategy="rank",
                                                   shards=3, shard_index=i))
        assert res.status == "exhausted-unsolvable"
    assert built == {"shapes": 1, "twins": 1}


def _without_twins(monkeypatch, net, ring, opts=RANK):
    """The search that walks every order: a fresh copy of net, whose shape
    is built while _twins finds none."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_twins", lambda *args: {})
        full = solve_scalar(_fresh(net), ring, opts)
    assert full.stats["twins"] == 0
    return full


def _prunes(res, full):
    """Same verdict and witness as the walk of every order, in no more
    nodes."""
    assert res.status == full.status
    assert res.stats["nodes"] <= full.stats["nodes"]
    if full.solved:
        assert codes.code_to_json(res.code) == codes.code_to_json(full.code)
    else:
        assert res.code is None


@pytest.mark.parametrize("ring", RINGS[:4],
                         ids=lambda ring: describe(ring.descriptor))
@pytest.mark.parametrize("n", range(4, 8))
def test_twins_prune_against_the_walk_of_every_order(monkeypatch, n, ring):
    res = solve_scalar(choose_two_network(n), ring, RANK)
    full = _without_twins(monkeypatch, choose_two_network(n), ring)
    assert res.stats["twins"] >= n - 2
    _prunes(res, full)
    assert res.stats["nodes"] < full.stats["nodes"]


@pytest.mark.parametrize("n", range(3, 7))
def test_vector_twins_prune_against_the_walk_of_every_order(monkeypatch, n):
    # 2-dim vector solvable over GF(2) exactly when 4 >= n - 1
    net, ring = choose_two_network(n), RINGS[5]
    res = solve_scalar(net, ring, RANK)
    assert res.status == ("solved" if n <= 5 else "exhausted-unsolvable")
    assert res.stats["twins"] == n - 2
    _prunes(res, _without_twins(monkeypatch, net, ring))


@pytest.mark.parametrize("ring", RINGS[:2],
                         ids=lambda ring: describe(ring.descriptor))
@pytest.mark.parametrize("n", (4, 8))
def test_bundled_twins_prune_against_the_walk_of_every_order(monkeypatch, n,
                                                             ring):
    # each relay's bundle is one position of cap 2; every receiver needs
    # two different planes of a 3-dimensional tail
    net = twin_cases._bundled_choose_two(n)
    res = solve_scalar(net, ring, RANK)
    assert res.stats["positions"] == n and res.stats["twins"] >= n - 2
    planes = ring.size ** 2 + ring.size + 1
    assert res.status == ("solved" if n <= planes else "exhausted-unsolvable")
    _prunes(res, _without_twins(monkeypatch, net, ring))
    if res.solved:
        assert codes.verify_solution(net, res.code).solved


@pytest.mark.parametrize("ring", RINGS[:3],
                         ids=lambda ring: describe(ring.descriptor))
@pytest.mark.parametrize("demands,twins", [
    (("m1", "m2"), 0), (("m2", "m1"), 0), (("m1", "m1"), 1)],
    ids=["m1-m2", "m2-m1", "m1-m1"])
def test_crossed_twins_against_the_walk_of_every_order(monkeypatch, ring,
                                                       demands, twins):
    # s -> v1 and s -> v2 share their tail and readers; they are twins
    # only when their receivers want the same message, since in one order
    # of unequal demands the only solutions put the larger candidate on
    # the earlier edge
    net = twin_cases._crossed_network(*demands)
    res = solve_scalar(net, ring, RANK)
    assert res.stats["twins"] == twins
    assert res.solved and bruteforce.check_code(net, res.code)
    _prunes(res, _without_twins(monkeypatch, net, ring))


@pytest.mark.parametrize("ring", RINGS[:3],
                         ids=lambda ring: describe(ring.descriptor))
def test_an_exchange_that_moves_a_check_makes_no_twins(monkeypatch, ring):
    # unnormalized, u0's edges to t0 and t1 share their tail and each is
    # one of two searched inputs of a receiver demanding m0 and m1, but t0
    # also reads s1 -> t0 and t1 reads s0 -> t1, so exchanging u0's two
    # edges alone maps neither check onto a check; as twins they would
    # move the witness over GF(3) and GF(4)
    net = Network(["s0", "s1", "u0", "t0", "t1"],
                  [("s1", "u0"), ("s0", "u0"), ("s1", "t0"), ("u0", "t0"),
                   ("u0", "t1"), ("s0", "t1")],
                  [("m0", "s0"), ("m1", "s1")],
                  {"t0": ("m0", "m1"), "t1": ("m0", "m1")})
    opts = SearchOptions(strategy="rank", normalize_forwarding=False)
    res = solve_scalar(net, ring, opts)
    assert res.solved and res.stats["twins"] == 0
    _prunes(res, _without_twins(monkeypatch, net, ring, opts))

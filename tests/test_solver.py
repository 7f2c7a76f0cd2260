"""Complete-search solver against full enumeration, plus search plumbing."""
import time
import types
from itertools import product
from unittest import mock

import numpy as np
import pytest

import bruteforce
from conftest import (chain2_network, chain_network, cut_chain_network,
                      funnel_network, pair_network, starve_network,
                      two_owner_network, wire2_network)
from netring import codes, networks, rings, solver
from netring.networks import (choose_two_network, dim_n_network, m_network,
                              trivial_network)
from netring.rings import (GaloisField, IntegersMod, MatrixRing, PrimeField,
                           Product, TableRing, UpperTriangular, construct_ring,
                           describe)
from netring.solver import (SearchOptions, nonunital_demo, smallest_ring_search,
                            solve_scalar, solve_vector, structured_catalog)

RING_POOL = [PrimeField(2), PrimeField(3), IntegersMod(4), GaloisField(2, 2)]

# (network builder, ring descriptors it stays tiny for)
ORACLE_CASES = [
    (trivial_network, RING_POOL),
    (wire2_network, RING_POOL),
    (pair_network, RING_POOL),
    (chain_network, RING_POOL),
    (starve_network, RING_POOL),
    (chain2_network, RING_POOL[:2]),
    (lambda: choose_two_network(2), RING_POOL),
]


def _oracle_id(case):
    builder, _ = case
    return builder.__name__ if hasattr(builder, "__name__") else "net"


@pytest.mark.parametrize("builder,descs", ORACLE_CASES,
                         ids=[b.__name__ for b, _ in ORACLE_CASES])
def test_solver_agrees_with_enumeration(builder, descs):
    net = builder()
    for desc in descs:
        ring = construct_ring(desc)
        want, oracle_coeffs, _ = bruteforce.solve(net, ring)
        for normalize in (True, False):
            opts = SearchOptions(normalize_forwarding=normalize)
            res = solve_scalar(net, ring, opts)
            assert res.status == want, (describe(desc), normalize)
            if res.solved:
                assert bruteforce.check_code(net, res.code)
            else:
                assert res.code is None


def test_exhaustive_witness_is_lex_least():
    net = choose_two_network(2)
    for desc in (PrimeField(2), PrimeField(3), IntegersMod(4)):
        ring = construct_ring(desc)
        status, coeffs, decs = bruteforce.solve(net, ring)
        assert status == "solved"
        opts = SearchOptions(normalize_forwarding=False,
                             strategy="exhaustive")
        res = solve_scalar(net, ring, opts)
        assert res.status == "solved"
        for e in net.topo_edges():
            assert res.code.edge_coeffs[e] == coeffs[e], (describe(desc), e)
        for key, row in decs.items():
            assert res.code.decodings[key] == row, (describe(desc), key)


def test_exhaustive_witness_is_built_from_the_tables():
    # u mixes x3 and x4 into t, which also hears x1 and x2 and wants x3:
    # the least local choice that decodes is u = x3, the 33rd of 1,024, and
    # t has 32^3 decode tuples per choice
    net = networks.Network(
        ["s1", "s2", "s3", "s4", "s5", "u", "t"],
        [("s1", "t"), ("s2", "t"), ("s3", "u"), ("s4", "u"), ("u", "t")],
        [(f"x{i}", f"s{i}") for i in range(1, 6)], {"t": ("x3",)})
    ring = construct_ring(GaloisField(2, 5))
    t0 = time.perf_counter()
    res = solve_scalar(net, ring, SearchOptions(strategy="exhaustive"))
    assert time.perf_counter() - t0 < 5.0
    assert res.solved and codes.verify_solution(net, res.code).solved
    assert res.code.edge_coeffs[networks.Edge("u", "t")] == (1, 0)
    assert res.code.decodings[("t", "x3")] == (0, 0, 1)


def test_strategies_agree_on_fields(gf2, gf3):
    for net in (choose_two_network(3), pair_network(), wire2_network()):
        for ring in (gf2, gf3):
            rank = solve_scalar(net, ring, SearchOptions(strategy="rank"))
            table = solve_scalar(net, ring,
                                 SearchOptions(strategy="exhaustive"))
            assert rank.status == table.status
            for res in (rank, table):
                if res.solved:
                    assert codes.verify_solution(net, res.code).solved


def test_rank_strategy_requires_field_like(z4):
    with pytest.raises(ValueError):
        solve_scalar(trivial_network(), z4, SearchOptions(strategy="rank"))


def test_normalization_agrees_on_choose_two(gf2, gf3):
    net = choose_two_network(3)
    for ring in (gf2, gf3):
        on = solve_scalar(net, ring, SearchOptions(normalize_forwarding=True))
        off = solve_scalar(net, ring,
                           SearchOptions(normalize_forwarding=False))
        assert on.status == off.status == "solved"
        assert codes.verify_solution(net, on.code).solved
        assert codes.verify_solution(net, off.code).solved


def test_node_budget_exhaustion(gf2):
    res = solve_scalar(m_network(), gf2, SearchOptions(node_budget=5))
    assert res.status == "budget-exceeded"
    assert res.code is None
    assert res.stats["nodes"] <= 6


def test_a_budget_stop_counts_a_node_but_not_a_chunk(gf2, gf3):
    # the rank engine counts a node, then refuses it: a budget of 5 stops
    # at node 6.  The exhaustive engine refuses a chunk before counting
    # it: 5,000 assignments stop at one chunk of 4,096 (choose-two(5) over
    # GF(3) has 59,049)
    rank = solve_scalar(m_network(), gf2, SearchOptions(node_budget=5))
    table = solve_scalar(choose_two_network(5), gf3,
                         SearchOptions(strategy="exhaustive",
                                       node_budget=5000))
    for res in (rank, table):
        assert res.status == "budget-exceeded"
        assert res.stats["reason"] == "node budget exhausted"
    assert rank.stats["nodes"] == 6
    assert table.stats["assignments"] == solver.CHUNK == 4096


def test_env_budget_default(monkeypatch):
    monkeypatch.setenv("NETRING_BUDGET", "123")
    assert SearchOptions().node_budget == 123
    monkeypatch.delenv("NETRING_BUDGET")
    assert SearchOptions().node_budget == solver.DEFAULT_NODE_BUDGET


@pytest.mark.parametrize("bad", [dict(shards=0), dict(shards=2, shard_index=2),
                                 dict(shard_index=-1), dict(node_budget=0),
                                 dict(time_budget=0.0), dict(time_budget=-1),
                                 dict(strategy="bogus")])
def test_invalid_options_are_rejected(gf2, bad):
    with pytest.raises(ValueError):
        solve_scalar(choose_two_network(3), gf2, SearchOptions(**bad))
    with pytest.raises(ValueError):
        solve_vector(choose_two_network(3), gf2, 2, SearchOptions(**bad))


def test_sweep_refuses_shards():
    # shard 3 of 4 holds no candidate for the first parallel edge, which
    # would read as "GF(2) is unsolvable"
    with pytest.raises(ValueError):
        smallest_ring_search(pair_network(), max_size=4,
                             options=SearchOptions(shards=4, shard_index=3))


@pytest.mark.parametrize("strategy", ["rank", "exhaustive"])
def test_sweep_refuses_a_strategy(strategy):
    # _decide never reads the strategy; accepting it would silently ignore it
    with pytest.raises(ValueError, match="strategy"):
        smallest_ring_search(choose_two_network(3), max_size=4,
                             options=SearchOptions(strategy=strategy))
    auto = smallest_ring_search(choose_two_network(3), max_size=4,
                                options=SearchOptions(strategy="auto"))
    assert auto.minimal_size == 2


def test_shards_cover_the_space(gf2, z4):
    # solvable: some shard finds it, every solved shard's code verifies
    net = choose_two_network(3)
    statuses = []
    for i in range(3):
        res = solve_scalar(net, gf2, SearchOptions(shards=3, shard_index=i))
        statuses.append(res.status)
        if res.solved:
            assert codes.verify_solution(net, res.code).solved
    assert "solved" in statuses
    # unsolvable: every shard must report exhaustion
    for i in range(2):
        res = solve_scalar(wire2_network(), z4,
                           SearchOptions(shards=2, shard_index=i))
        assert res.status == "exhausted-unsolvable"


@pytest.mark.parametrize("strategy, net, desc", [
    ("rank", m_network, PrimeField(2)),
    ("exhaustive", wire2_network, IntegersMod(4))])
def test_an_exhausted_shard_is_named(strategy, net, desc):
    # one shard's exhaustion says nothing of the others, so it says which
    # shard it was; an unsharded search names none
    ring = construct_ring(desc)
    res = solve_scalar(net(), ring, SearchOptions(strategy=strategy,
                                                  shards=2, shard_index=1))
    assert res.status == "exhausted-unsolvable"
    assert res.stats["sharded"] == "1/2"
    whole = solve_scalar(net(), ring, SearchOptions(strategy=strategy))
    assert whole.status == "exhausted-unsolvable"
    assert "sharded" not in whole.stats


@pytest.mark.parametrize("desc", [GaloisField(2, 2), PrimeField(5),
                                  MatrixRing(PrimeField(2), 2)], ids=describe)
def test_rank_shards_share_out_the_orbit_leaders(desc):
    # the M-network's first searched edge keeps one candidate per
    # message-symmetry orbit; cut into shards, that edge's leaders are
    # shared out, none searched twice and none lost
    net, ring = m_network(), construct_ring(desc)
    whole = solve_scalar(net, ring, SearchOptions(strategy="rank"))
    parts = [solve_scalar(net, ring, SearchOptions(strategy="rank", shards=3,
                                                   shard_index=i))
             for i in range(3)]
    union = ("solved" if any(res.solved for res in parts)
             else "exhausted-unsolvable")
    assert union == whole.status
    for res in parts:
        if res.solved:
            assert codes.verify_solution(net, res.code).solved
    if not whole.solved:
        assert whole.stats["orbit_skips"] > 0
        for key in ("nodes", "orbit_skips"):
            assert sum(res.stats[key] for res in parts) == whole.stats[key]


@pytest.mark.parametrize("n, method", [
    (3, "direct search as Z_4"),          # fits one block: never reduced
    (4, "quotient onto GF(2) is unsolvable")])
def test_sharded_auto_never_reduces(z4, monkeypatch, n, method):
    # a quotient's verdict is the ring's, not one shard's: a sharded auto
    # search enumerates the ring itself, and the quotient and canonical-block
    # searches behind an unsharded verdict are never cut into shards
    calls = []
    for name in ("_solve_rank", "_solve_table"):
        engine = getattr(solver, name)

        def traced(net, ring, opts, *planned, engine=engine):
            calls.append((describe(ring.descriptor), opts.shards))
            return engine(net, ring, opts, *planned)
        monkeypatch.setattr(solver, name, traced)
    net = choose_two_network(n)
    whole = solve_scalar(net, z4)
    assert whole.stats["method"] == method
    assert all(shards == 1 for _, shards in calls)
    calls.clear()
    parts = [solve_scalar(net, z4, SearchOptions(shards=4, shard_index=i))
             for i in range(4)]
    assert all(res.stats["method"] == "direct search as Z_4" for res in parts)
    assert calls == [("Z_4", 4)] * 4
    union = ("solved" if any(res.solved for res in parts)
             else "exhausted-unsolvable")
    assert union == whole.status


# Z_2[x]/(x^2), a + b*x stored as a + 2*b
DUAL_NUMBERS = TableRing(
    tuple(tuple(i ^ j for j in range(4)) for i in range(4)),
    tuple(tuple((i & j & 1) | ((((i & 1) * (j >> 1)) ^ ((i >> 1) * (j & 1)))
                               << 1) for j in range(4)) for i in range(4)))


@pytest.mark.parametrize("desc", [IntegersMod(4),
                                  Product((PrimeField(2), PrimeField(2))),
                                  DUAL_NUMBERS], ids=describe)
def test_auto_settles_m_network_by_a_quotient(desc):
    ring = construct_ring(desc)
    t0 = time.perf_counter()
    res = solve_scalar(m_network(), ring)
    assert time.perf_counter() - t0 < 1.0
    assert res.status == "exhausted-unsolvable" and res.code is None
    assert res.stats["method"] == "quotient onto GF(2) is unsolvable"


@pytest.mark.parametrize("n, method", [
    (3, "direct search as Z_4"),
    (4, "quotient onto GF(2) is unsolvable")])
def test_auto_plans_the_exhaustive_search_once(z4, monkeypatch, n, method):
    # the plan that sizes the space for the reduction gate is the one the
    # direct search then runs on
    plans = []
    table_slots = solver._table_slots

    def counted(*args):
        plans.append(table_slots(*args))
        return plans[-1]
    monkeypatch.setattr(solver, "_table_slots", counted)
    res = solve_scalar(choose_two_network(n), z4)
    assert res.stats["method"] == method
    assert len(plans) == 1


def _table_copy(desc):
    ring = construct_ring(desc)
    return construct_ring(TableRing(ring.add_table().tolist(),
                                    ring.mul_table().tolist()))


def test_table_copies_of_fields_are_named_by_their_canonical_form():
    res = solve_scalar(m_network(), _table_copy(GaloisField(2, 2)))
    assert res.status == "exhausted-unsolvable"
    assert res.stats["method"] == "direct search as GF(2^2)"
    gf3 = _table_copy(PrimeField(3))
    net = choose_two_network(4)
    res = solve_scalar(net, gf3)
    assert res.solved and res.stats["method"] == "direct search as GF(3)"
    assert res.code.module.ring is gf3
    assert codes.semantic_verify(net, res.code).solved


def test_explicit_strategies_stay_raw_searches(z4):
    # the same ring and network that auto settles by its GF(2) quotient
    res = solve_scalar(m_network(), z4, SearchOptions(node_budget=100,
                                                      strategy="exhaustive"))
    assert res.status == "budget-exceeded"
    assert res.stats["method"] == "direct search as Z_4"


def _hops(n: int) -> networks.Network:
    """One message from s over n + 1 single edges through u0 .. u(n-1)."""
    nodes = ["s"] + [f"u{i}" for i in range(n)] + ["t"]
    return networks.Network(nodes, list(zip(nodes, nodes[1:])),
                            [("m", "s")], {"t": ("m",)})


def test_rank_search_depth_is_not_bounded_by_recursion(gf2):
    # unforwarded, 1,200 hops are 1,200 searched positions (the last edge
    # is free), past the interpreter's default recursion limit
    net = _hops(1200)
    res = solve_scalar(net, gf2, SearchOptions(normalize_forwarding=False))
    assert res.solved and res.stats["positions"] == 1200
    assert codes.verify_solution(net, res.code).solved


@pytest.mark.parametrize("desc", [PrimeField(2), IntegersMod(4)],
                         ids=describe)
def test_witness_depth_is_not_bounded_by_recursion(desc):
    # forwarded, 600 hops search nothing, and the rank witness builds the
    # chain's rows in topological order, not by a call per hop
    net = _hops(600)
    res = solve_scalar(net, construct_ring(desc))
    assert res.solved
    assert codes.verify_solution(net, res.code).solved


@pytest.mark.parametrize("desc", [PrimeField(2), MatrixRing(PrimeField(2), 2)],
                         ids=describe)
def test_the_witness_reads_no_packed_rows(desc):
    # the search's packed GF(2) rows are unpacked at the witness, whose one
    # elimination runs on coordinate rows: no packed span sum in it, even
    # where a free edge's lift is canonicalized.  Imported here: that module
    # imports this one (through test_generated)
    from test_rank_witness import LIFTED
    net, normalize = LIFTED[0]
    real, calls = solver._rank_witness, []

    def unpacked(*args):
        calls.append(args)
        with mock.patch.object(solver.fl, "space_sum2",
                               side_effect=AssertionError("packed sum")), \
                mock.patch.object(solver.fl, "rref2",
                                  side_effect=AssertionError("packed rref")):
            return real(*args)
    with mock.patch.object(solver, "_rank_witness", unpacked):
        res = solve_scalar(net, construct_ring(desc), SearchOptions(
            strategy="rank", normalize_forwarding=normalize))
    assert res.solved and len(calls) == 1
    assert codes.verify_solution(net, res.code).solved
    assert codes.semantic_verify(net, res.code).solved


def test_solve_vector_boundaries(gf2):
    net = choose_two_network(4)  # needs q >= 3, so dim 1 over GF(2) fails
    assert solve_vector(net, gf2, 1).status == "exhausted-unsolvable"
    res = solve_vector(net, gf2, 2)
    assert res.status == "solved"
    assert res.code.module.vector_dim == 2
    assert codes.verify_solution(net, res.code).solved
    assert codes.semantic_verify(net, res.code).solved


def test_solve_vector_split_cannot_prove_unsolvable(gf2):
    # with the direct route priced out and dim-1 unsolvable, a failed
    # split proves nothing, so the verdict must be budget-exceeded
    net = choose_two_network(4)
    res = solve_vector(net, gf2, 2, SearchOptions(node_budget=3))
    assert res.status == "budget-exceeded"


def test_solve_vector_searches_what_the_budget_allows(gf2):
    # choose-two(4) over GF(2)^2 is a 30-node search of M_2(GF(2)); nothing
    # prices it out before it starts
    net = choose_two_network(4)
    res = solve_vector(net, gf2, 2, SearchOptions(node_budget=100))
    assert res.status == "solved"
    assert res.stats["method"] == "direct search as M_2(GF(2))"
    assert res.stats["nodes"] == 30
    assert codes.semantic_verify(net, res.code).solved


@pytest.mark.parametrize("builder,k,method", [
    (lambda: choose_two_network(3), 2, "dim-sum 1+1"),
    (m_network, 4, "dim-sum 2+2"),
    (m_network, 2, "direct search as M_2(GF(2))"),
], ids=["choose-two(3)/2", "m/4", "m/2"])
def test_solve_vector_route_is_pinned(gf2, builder, k, method):
    # splits come first; a dimension no split solves is searched as M_k(F)
    net = builder()
    res = solve_vector(net, gf2, k)
    assert res.status == "solved" and res.stats["method"] == method
    if method.startswith("dim-sum"):
        assert all(part["method"] for part in res.stats["parts"])
    assert res.code.module.vector_dim == k
    assert codes.verify_solution(net, res.code).solved
    assert codes.semantic_verify(net, res.code).solved


def test_candidate_lists_stay_inside_the_budgets():
    # an edge's candidates are listed whole before its first node: a list
    # longer than the node budget stops the search at once, and the time
    # budget bounds the listing (M_3(GF(2)) lists 788,035 for one edge)
    net = dim_n_network(3)
    res = solve_scalar(net, construct_ring(MatrixRing(PrimeField(2), 4)))
    assert res.status == "budget-exceeded"
    assert "candidates outnumber the node budget" in res.stats["reason"]
    t0 = time.perf_counter()
    res = solve_scalar(net, construct_ring(MatrixRing(PrimeField(2), 3)),
                       SearchOptions(time_budget=0.2))
    assert res.status == "budget-exceeded" and res.stats["nodes"] == 0
    assert time.perf_counter() - t0 < 5.0


def test_candidate_listing_stops_at_the_deadline(monkeypatch):
    # dim-n(3) over M_3(GF(2)) lists 788,035 forms for one position before
    # its first node.  A clock that ticks 1e-5 s per packed echelon
    # reduction makes the listing slow and exact; read every 1,024 forms,
    # it stopped a 0.003 s budget at 0.01033 s, 244 % late
    clock = [0.0]
    rref2 = solver.fl.rref2

    def ticking(rows):
        clock[0] += 1e-5
        return rref2(rows)
    monkeypatch.setattr(solver.fl, "rref2", ticking)
    monkeypatch.setattr(solver, "time",
                        types.SimpleNamespace(perf_counter=lambda: clock[0]))
    res = solve_scalar(dim_n_network(3),
                       construct_ring(MatrixRing(PrimeField(2), 3)),
                       SearchOptions(strategy="rank", time_budget=0.003))
    assert res.status == "budget-exceeded"
    assert res.stats["reason"] == "time budget exhausted"
    assert res.stats["nodes"] == 0
    assert 0.003 < clock[0] <= 0.003 * 1.05


def test_the_orbit_search_stops_at_the_deadline(monkeypatch):
    # dim-n(3) over GF(61) spends its time finding orbits of planes at its
    # claimed positions, between candidate listings, and searches only 51
    # nodes.  A clock that ticks once per canonical form keeps the test
    # fast and exact: the search is exhausted after 87,018 forms, and a
    # budget of half that stops it within 5 % of the deadline
    clock = [0.0]
    canon = solver.fl.canon_space

    def ticking(ops, rows):
        clock[0] += 1e-5
        return canon(ops, rows)
    monkeypatch.setattr(solver.fl, "canon_space", ticking)
    monkeypatch.setattr(solver, "time",
                        types.SimpleNamespace(perf_counter=lambda: clock[0]))
    gf61 = construct_ring(PrimeField(61))
    full = solve_scalar(dim_n_network(3), gf61, SearchOptions(strategy="rank"))
    assert full.status == "exhausted-unsolvable"
    assert full.stats["nodes"] == 51
    assert clock[0] == pytest.approx(0.87018)
    clock[0] = 0.0
    res = solve_scalar(dim_n_network(3), gf61,
                       SearchOptions(strategy="rank", time_budget=0.5))
    assert res.status == "budget-exceeded"
    assert res.stats["reason"] == "time budget exhausted"
    assert 0.5 < clock[0] <= 0.5 * 1.05


@pytest.mark.parametrize("share", [0.1, 0.3])
def test_the_node_loop_stops_at_the_deadline(monkeypatch, share):
    # the M-network over M_2(GF(2)) spends its time in the node loop, on
    # packed span sums; a clock that ticks 1e-5 s per sum makes the whole
    # search 6,284 nodes and 0.06220 s (the witness, which works on
    # unpacked rows, adds no packed sums).  Reading the clock only every
    # 1,024 nodes stopped a 10 % budget at node 1,024, 130 % late
    clock = [0.0]
    space_sum2 = solver.fl.space_sum2

    def ticking(a, b):
        clock[0] += 1e-5
        return space_sum2(a, b)
    monkeypatch.setattr(solver.fl, "space_sum2", ticking)
    monkeypatch.setattr(solver, "time",
                        types.SimpleNamespace(perf_counter=lambda: clock[0]))
    m2 = construct_ring(MatrixRing(PrimeField(2), 2))
    full = solve_scalar(m_network(), m2, SearchOptions(strategy="rank"))
    assert full.status == "solved"
    assert full.stats["nodes"] == 6284
    assert clock[0] == pytest.approx(0.06220)
    budget = share * clock[0]
    clock[0] = 0.0
    res = solve_scalar(m_network(), m2,
                       SearchOptions(strategy="rank", time_budget=budget))
    assert res.status == "budget-exceeded"
    assert res.stats["reason"] == "time budget exhausted"
    assert res.stats["nodes"] < full.stats["nodes"]
    assert budget < clock[0] <= budget * 1.05


def test_smallest_ring_search_small_net():
    report = smallest_ring_search(choose_two_network(3), max_size=4)
    assert report.minimal_size == 2
    assert [v.name for v in report.winners] == ["GF(2)"]
    assert len(report.verdicts) == 1  # search stops past the first size
    assert ("complete for every finite ring with identity up to 4 elements"
            in report.coverage)


def test_smallest_ring_search_unsolvable_everywhere():
    report = smallest_ring_search(wire2_network(), max_size=4)
    assert report.minimal_size is None
    assert report.winners == []
    assert all(v.status == "exhausted-unsolvable" for v in report.verdicts)
    assert {v.size for v in report.verdicts} == {2, 3, 4}


def test_m_network_sweep_searches_each_simple_ring_once():
    report = smallest_ring_search(m_network(), 16)
    assert report.minimal_size == 16
    assert [v.name for v in report.winners] == ["M_2(GF(2))"]
    want = [describe(rings.simple_ring(r, q)) for n in range(2, 17)
            for r, q in rings.simple_rings(n)]
    assert [v.name for v in report.verdicts] == want
    assert all(v.method == f"direct search as {v.name}"
               for v in report.verdicts)
    assert report.coverage.startswith(
        "complete for every finite ring with identity up to 16 elements")


def test_default_sweep_needs_no_ideals_or_isomorphisms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the default sweep left the simple rings")
    for name in ("two_sided_ideals", "quotient", "find_isomorphism"):
        monkeypatch.setattr(rings, name, refuse)
    report = smallest_ring_search(m_network(), 16)
    assert [v.name for v in report.winners] == ["M_2(GF(2))"]


def test_explicit_catalogue_coverage_names_the_listed_rings_only():
    cat = [IntegersMod(4), PrimeField(3), PrimeField(2)]
    report = smallest_ring_search(wire2_network(), max_size=100, catalog=cat)
    assert [v.name for v in report.verdicts] == ["GF(2)", "GF(3)", "Z_4"]
    assert report.coverage == "complete for the 3 listed rings only"
    assert report.verdicts[2].method == "quotient onto GF(2) is unsolvable"


def test_sweep_coverage_names_the_rings_the_budget_stopped():
    report = smallest_ring_search(m_network(), 16,
                                  options=SearchOptions(node_budget=50))
    stopped = [v.name for v in report.verdicts
               if v.status == "budget-exceeded"]
    assert stopped and ", ".join(stopped) in report.coverage
    assert "not settled" in report.coverage


def test_explicit_catalogue_may_list_table_rings():
    copy = _table_copy(PrimeField(2)).descriptor
    report = smallest_ring_search(choose_two_network(3),
                                  catalog=[copy, PrimeField(2)])
    assert [v.name for v in report.winners] == ["GF(2)",
                                                "table ring of size 2"]


# Z_4's addition with GF(4)'s multiplication: both distributive laws fail,
# yet is_field() accepts it
NOT_A_RING = TableRing(
    [[(a + b) % 4 for b in range(4)] for a in range(4)],
    [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])


def test_a_table_that_is_not_a_ring_is_never_searched():
    ring = construct_ring(NOT_A_RING)     # construction stays permissive
    assert ring.is_field()
    not_a_ring = "is not a ring: left-distributive fails at elements"
    for net in (choose_two_network(3), m_network()):
        for strategy in solver.STRATEGIES:
            with pytest.raises(ValueError, match=not_a_ring):
                solve_scalar(net, ring, SearchOptions(strategy=strategy))
    with pytest.raises(ValueError, match=not_a_ring):
        solve_vector(choose_two_network(3), ring, 2)
    with pytest.raises(ValueError, match=not_a_ring):
        smallest_ring_search(m_network(), catalog=[PrimeField(2), NOT_A_RING])


@pytest.mark.parametrize("kwargs", [dict(max_size=1), dict(max_size=0),
                                    dict(max_size=-5), dict(catalog=[])])
def test_sweep_refuses_degenerate_requests(kwargs):
    # an empty sweep would read as "no ring solves it"
    with pytest.raises(ValueError):
        smallest_ring_search(choose_two_network(3), **kwargs)


def test_simple_ring_inventory():
    for most, count in ((16, 11), (32, 19), (4096, 611)):
        found = [(n, r, q) for n in range(2, most + 1)
                 for r, q in rings.simple_rings(n)]
        assert len(found) == count
        assert [n for n, _, _ in found] == sorted(n for n, _, _ in found)
        for n, r, q in found:
            desc = rings.simple_ring(r, q)
            assert rings.descriptor_size(desc) == n == q ** (r * r)
            assert solver._rank_parts(construct_ring(desc)) is not None
    # the field first at each size, then larger matrix blocks
    assert rings.simple_rings(16) == [(1, 16), (2, 2)]
    assert rings.simple_rings(2 ** 36) == [(1, 2 ** 36), (2, 2 ** 9),
                                          (3, 2 ** 4), (6, 2)]
    assert rings.simple_rings(12) == rings.simple_rings(1) == []


def test_structured_catalog_inventory():
    cat = structured_catalog(16)
    assert len(cat) == 37
    names = [describe(d) for d in cat]
    assert len(set(names)) == 37
    sizes = [rings.descriptor_size(d) for d in cat]
    assert sizes == sorted(sizes) and max(sizes) <= 16
    assert any("M_2(GF(2))" == n for n in names)
    assert any(n.startswith("UT_2") or "riangular" in n or "ut" in n.lower()
               for n in names)

    def atoms(desc):
        if isinstance(desc, rings.Product):
            for f in desc.factors:
                yield from atoms(f)
        else:
            yield desc

    for desc in cat:
        for atom in atoms(desc):
            if isinstance(atom, IntegersMod):
                assert rings._prime_power(atom.n) is not None, describe(desc)


def test_nonunital_demo_all_coefficients_fail():
    report = nonunital_demo()
    assert report.values == (0, 2, 4, 6)
    assert report.has_identity is False
    assert [c for c, _ in report.collisions] == [0, 2, 4, 6]
    for _, (a, b) in report.collisions:
        assert a != b and a in report.values and b in report.values
    assert "identity" in report.message


def test_result_stats_shape(gf2):
    res = solve_scalar(choose_two_network(3), gf2)
    assert res.solved and res.code is not None
    assert res.stats["strategy"] == "rank"
    assert res.stats["nodes"] > 0 and res.stats["elapsed"] >= 0
    table = solve_scalar(trivial_network(),
                         construct_ring(IntegersMod(4)))
    assert table.solved
    assert table.stats["strategy"] == "exhaustive"
    assert table.code.edge_coeffs[trivial_network().edges[0]] == (1,)


def test_exhaustive_phase_seconds_have_the_rank_keys(gf3):
    # the exhaustive engine times the same phases as the rank engine; it
    # compiles nothing, and elapsed ends with the search, as rank's does
    solved = solve_scalar(choose_two_network(3), gf3,
                          SearchOptions(strategy="exhaustive"))
    unsolvable = solve_scalar(choose_two_network(5), gf3,
                              SearchOptions(strategy="exhaustive"))
    stopped = solve_scalar(choose_two_network(5), gf3,
                           SearchOptions(strategy="exhaustive",
                                         node_budget=5000))
    assert [solved.status, unsolvable.status, stopped.status] == [
        "solved", "exhausted-unsolvable", "budget-exceeded"]
    for res in (solved, unsolvable, stopped):
        phases = res.stats["phase_seconds"]
        assert list(phases) == ["compile", "search", "witness", "verify"]
        assert phases["compile"] == 0.0
        assert min(phases.values()) >= 0.0
    phases = solved.stats["phase_seconds"]
    assert phases["witness"] > 0.0 and phases["verify"] > 0.0
    assert solved.stats["elapsed"] == phases["search"]
    for res in (unsolvable, stopped):
        phases = res.stats["phase_seconds"]
        assert phases["witness"] == phases["verify"] == 0.0
        assert phases["search"] == res.stats["elapsed"]


def test_exhaustive_decides_each_distinct_input_once(gf3):
    # choose-two(5) over GF(3): 59,049 assignments in 15 chunks.  Each of
    # the 10 receivers reads the 4 slots of its two relays' edges, so it
    # keeps a verdict for each of their 3^4 = 81 values and decides a
    # value once per search, the first time a row still alive reaches it:
    # receiver_checks counts the values (here each gives its own input
    # tuple) and memo_hits every other row looked at.  Together they are
    # the rows the receivers look at, as when each chunk decided its own
    # distinct tuples (2,556 of them, reused 157,629 times)
    res = solve_scalar(choose_two_network(5), gf3,
                       SearchOptions(strategy="exhaustive"))
    assert res.status == "exhausted-unsolvable"
    assert res.stats["assignments"] == 59049
    assert res.stats["receiver_checks"] == 633
    assert res.stats["memo_hits"] == 159552
    assert res.stats["receiver_checks"] + res.stats["memo_hits"] == \
        2556 + 157629
    reads = solver._read_sets(solver._table_slots(
        choose_two_network(5), 3, SearchOptions())[0])
    assert sorted(len(slots) for slots, _ in reads.values()) == [4] * 10


def _without_verdicts(monkeypatch, net, ring, **kw):
    """The exhaustive search with and without verdict arrays (every
    receiver deciding chunk by chunk): the same status, witness,
    assignments and rows looked at.  Returns the first."""
    opts = SearchOptions(strategy="exhaustive", **kw)
    res = solve_scalar(net, ring, opts)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "VERDICT_ENTRIES", 0)
        raw = solve_scalar(net, ring, opts)
    assert res.status == raw.status
    assert res.code is None or bruteforce.check_code(net, res.code)
    assert (res.code and codes.code_to_json(res.code)) == \
        (raw.code and codes.code_to_json(raw.code))
    for key in ("assignments", "space"):
        assert res.stats[key] == raw.stats[key]
    assert res.stats["receiver_checks"] + res.stats["memo_hits"] == \
        raw.stats["receiver_checks"] + raw.stats["memo_hits"]
    return res


# s owns m0 and m1 and feeds relays u0..u3, one edge each (two slots);
# t0 reads u0 and u1, t2 reads u2 and u3, and t1 reads s2's message alone
NO_SLOT = networks.Network(
    ["s", "s2", "u0", "u1", "u2", "u3", "t0", "t1", "t2"],
    [("s", "u0"), ("s", "u1"), ("s", "u2"), ("s", "u3"), ("u0", "t0"),
     ("u1", "t0"), ("s2", "t1"), ("u2", "t2"), ("u3", "t2")],
    [("m0", "s"), ("m1", "s"), ("m2", "s2")],
    {"t0": ("m0", "m1"), "t1": ("m2",), "t2": ("m1", "m0")})
# s feeds u0..u4 likewise; t0 reads u0, u1 and the local edge out of w,
# which merges u2 and u3, and t1 reads u4
LOCAL = networks.Network(
    ["s", "u0", "u1", "u2", "u3", "u4", "w", "t0", "t1"],
    [("s", "u0"), ("s", "u1"), ("s", "u2"), ("s", "u3"), ("s", "u4"),
     ("u0", "t0"), ("u1", "t0"), ("u2", "w"), ("u3", "w"), ("w", "t0"),
     ("u4", "t1")],
    [("m0", "s"), ("m1", "s")], {"t0": ("m0", "m1"), "t1": ("m0",)})


@pytest.mark.parametrize("net, desc, reads", [
    # t1 reads no slot: its one value is decided in the first chunk
    (NO_SLOT, PrimeField(3), {"t0": 4, "t1": 0, "t2": 4}),
    # t0's local edge out of w reads the slots of u2 and u3
    (LOCAL, PrimeField(3), {"t0": 8, "t1": 2}),
    (choose_two_network(4), IntegersMod(4), None),
])
def test_verdict_arrays_change_no_result(monkeypatch, net, desc, reads):
    ring = construct_ring(desc)
    plan, nslots = solver._table_slots(net, ring.size, SearchOptions())
    assert ring.size ** nslots > solver.CHUNK
    if reads is not None:
        got = solver._read_sets(plan)
        assert {r: len(got[v][0]) for r, v, _ in plan.compiled.receivers} \
            == reads
    res = _without_verdicts(monkeypatch, net, ring)
    assert res.status == ("exhausted-unsolvable" if desc == IntegersMod(4)
                          else "solved")
    for shards in (2, 3):
        for k in range(shards):
            _without_verdicts(monkeypatch, net, ring, shards=shards,
                              shard_index=k)


def _coefficients(plan, ring, outer, local):
    """Edge -> coefficients: the outer and local edges take the digits
    outer and local, in slot order, and the forwarding edges forward."""
    cn = plan.compiled
    coeffs = plan.forwarding(ring.one)
    digits = iter(outer)
    for e in plan.outer:
        coeffs[e] = tuple(next(digits) for _ in cn.inputs[cn.tails[e]])
    digits = iter(local)
    for edges in plan.local_of.values():
        for e in edges:
            coeffs[e] = tuple(next(digits) for _ in cn.inputs[cn.tails[e]])
    return dict(zip(cn.edges, coeffs))


def assert_read_sets_are_exact(net, ring, normalize):
    """A slot is in a receiver's read set iff changing that slot changes
    one of the receiver's input rows under some assignment of every outer
    and local slot."""
    opts = SearchOptions(normalize_forwarding=normalize)
    plan, nslots = solver._table_slots(net, ring.size, opts)
    cn = plan.compiled
    nlocal = plan.arity([e for es in plan.local_of.values() for e in es])
    units = [{m: ring.one if m == n else 0 for m in net.message_names}
             for n in net.message_names]
    wires = bruteforce.wiring(net)
    rows = {}
    for digits in product(range(ring.size), repeat=nslots + nlocal):
        coeffs = _coefficients(plan, ring, digits[:nslots], digits[nslots:])
        # an edge's row: its values when one message is one, the rest zero
        values = [bruteforce.edge_values(net, ring, coeffs, a, wires)
                  for a in units]
        rows[digits] = {v: [[value[cn.edges[x]] for value in values]
                            for x in cn.into[v]]
                        for _, v, _ in cn.receivers}
    owns, at = {}, 0        # each outer edge's slots
    for e in plan.outer:
        owns[e] = range(at, at + len(cn.inputs[cn.tails[e]]))
        at = owns[e].stop
    reads = solver._read_sets(plan)
    for _, v, _ in cn.receivers:
        moves = {s for digits in rows for s in range(nslots)
                 for c in range(ring.size)
                 if rows[digits][v] != rows[digits[:s] + (c,)
                                            + digits[s + 1:]][v]}
        assert reads[v][0] == tuple(sorted(moves)), (v, normalize)
        # the edges that own those slots, in topological order
        assert [s for e in reads[v][1] for s in owns[e]] == \
            list(reads[v][0])


@pytest.mark.parametrize("net", [
    choose_two_network(3), chain2_network(), NO_SLOT, LOCAL,
])
def test_read_sets_are_the_slots_that_move_a_receivers_rows(gf2, net):
    checked = 0
    for normalize in (True, False):
        plan, nslots = solver._table_slots(
            net, 2, SearchOptions(normalize_forwarding=normalize))
        if nslots + plan.arity([e for es in plan.local_of.values()
                                for e in es]) <= 12:
            assert_read_sets_are_exact(net, gf2, normalize)
            checked += 1
    assert checked


def test_filling_the_verdicts_stops_at_the_deadline(monkeypatch, gf3):
    # choose-two(6) over GF(3): 531,441 assignments in 130 chunks, and each
    # of the 15 receivers reads 4 of the 12 slots, so every decision fills
    # a verdict array.  A clock that ticks 1e-5 s per block of decode
    # combinations makes the whole search 230 blocks; a budget that runs
    # out while the arrays fill stops within one block of the deadline
    clock = [0.0]
    combinations = solver._combinations

    def ticking(*args):
        clock[0] += 1e-5
        return combinations(*args)
    monkeypatch.setattr(solver, "_combinations", ticking)
    monkeypatch.setattr(solver, "time",
                        types.SimpleNamespace(perf_counter=lambda: clock[0]))
    net = choose_two_network(6)
    opts = SearchOptions(strategy="exhaustive")
    full = solve_scalar(net, gf3, opts)
    assert full.status == "exhausted-unsolvable"
    assert full.stats["receiver_checks"] == 833
    assert clock[0] == pytest.approx(230e-5)
    for share in (0.1, 0.5, 0.9):
        budget = share * clock[0]
        clock[0] = 0.0
        res = solve_scalar(net, gf3, SearchOptions(strategy="exhaustive",
                                                   time_budget=budget))
        assert res.status == "budget-exceeded"
        assert res.stats["reason"] == "time budget exhausted"
        assert res.stats["assignments"] < full.stats["assignments"]
        assert budget < clock[0] <= budget + 1e-5 + 1e-12


def test_a_node_budget_stops_the_verdict_search_on_a_chunk(gf3):
    # choose-two(5) over GF(3) keeps verdicts for every receiver; 20,000
    # assignments allow four chunks of 4,096, and the fifth is refused
    res = solve_scalar(choose_two_network(5), gf3,
                       SearchOptions(strategy="exhaustive",
                                     node_budget=20000))
    assert res.status == "budget-exceeded"
    assert res.stats["reason"] == "node budget exhausted"
    assert res.stats["assignments"] == 4 * solver.CHUNK <= 20000
    assert 0 < res.stats["receiver_checks"] <= 10 * 81


def _five_sources(edges, demand):
    nodes = [f"s{i}" for i in range(1, 6)] + sorted(
        {v for e in edges for v in e} - {f"s{i}" for i in range(1, 6)})
    return networks.Network(nodes, edges,
                            [(f"x{i}", f"s{i}") for i in range(1, 6)],
                            {"t": demand})


def test_exhaustive_keys_stay_exact_past_int64():
    # 3 inputs x 5 messages = 15 digits of 5 bits: a key of 75 bits, past
    # one int64 word; a wrapped key unpacks to the wrong input rows
    gf32 = construct_ring(GaloisField(2, 5))
    opts = SearchOptions(strategy="exhaustive")
    delivered = _five_sources([("s1", "t"), ("s2", "t"), ("s3", "t")],
                              ("x1",))
    res = solve_scalar(delivered, gf32, opts)
    assert res.solved and codes.verify_solution(delivered, res.code).solved
    # x3 and x4 reach t only through the relay's one edge
    shared = _five_sources([("s1", "t"), ("s2", "t"), ("s3", "u"),
                            ("s4", "u"), ("u", "t")], ("x3", "x4"))
    res = solve_scalar(shared, gf32, opts)
    assert res.status == "exhausted-unsolvable"
    assert res.stats["receiver_checks"] == 32 * 32


def test_time_budget_stops_the_exhaustive_search_promptly():
    # every chunk of the M-network over Z_8 must finish quickly enough
    # for the deadline, checked between chunks, to be met
    z8 = construct_ring(IntegersMod(8))
    t0 = time.perf_counter()
    res = solve_scalar(m_network(), z8,
                       SearchOptions(strategy="exhaustive", time_budget=1))
    assert time.perf_counter() - t0 < 10
    assert res.status == "budget-exceeded"
    assert res.stats["reason"] == "time budget exhausted"



def _loop_decodable(ring, rows, targets):
    """The per-d loop the vectorized receiver check replaced."""
    m = len(rows[0])

    def combination(d):
        acc = [0] * m
        for c, row in zip(d, rows):
            acc = [ring.add(a, ring.mul(c, v)) for a, v in zip(acc, row)]
        return acc

    reached = [combination(d)
               for d in product(range(ring.size), repeat=len(rows))]
    return all([ring.one if i == j else 0 for i in range(m)] in reached
               for j in targets)


@pytest.mark.parametrize("desc", [IntegersMod(4),
                                  UpperTriangular(PrimeField(2), 2),
                                  Product((PrimeField(2), PrimeField(3)))])
def test_decodable_matches_a_loop_over_decode_tuples(desc):
    ring = construct_ring(desc)
    rng = np.random.default_rng(5)
    rows = rng.integers(0, ring.size, size=(400, 2, 3))
    rows[::4, 0] = [0, ring.one, 0]     # a unit row, so both verdicts occur
    arr_list = [rows[:, None, i, :] for i in range(2)]
    tuples, inv = solver._distinct_inputs(arr_list, (400, 1), ring.size, 3)
    assert (tuples[inv] == rows).all()
    for targets in ([0], [1], [0, 2]):
        got = solver._decodable(tuples, ring.mul_table(), ring.add_table(),
                                ring.one, targets)
        assert got.tolist() == [_loop_decodable(ring, x, targets)
                                for x in tuples.tolist()]


# ---------------------------------------------------------------------------
# the cut-set bound

CUT_NETS = ([cut_chain_network(k, chain, decoys) for k in (2, 3)
             for chain in (0, 1, 2) for decoys in (0, 2)]
            + [funnel_network(), two_owner_network()])
BOUND_RINGS = [PrimeField(2), PrimeField(3), MatrixRing(PrimeField(2), 2)]


def _cut_method(net):
    r, owners, _, cut = networks.cut_deficit(net)
    want = bruteforce.owned_demands(net, r, owners)
    return f"cut-set bound at {r}: {len(cut)} edges for {len(want)} messages"


@pytest.mark.parametrize("desc", BOUND_RINGS, ids=describe)
def test_the_bound_agrees_with_the_rank_search_it_replaces(desc, monkeypatch):
    ring = construct_ring(desc)
    bound = [solve_scalar(net, ring) for net in CUT_NETS]
    for net, res in zip(CUT_NETS, bound):
        assert res.status == "exhausted-unsolvable" and res.code is None
        assert res.stats["method"] == _cut_method(net)
        cut = res.stats["cut"]
        edges = [networks.Edge(*e) for e in cut["edges"]]
        assert bruteforce.separates(net, cut["owners"], edges,
                                    cut["receiver"])
        assert len(edges) < len(cut["messages"])
        raw = solve_scalar(net, ring, SearchOptions(strategy="rank"))
        assert raw.status == res.status
        assert raw.stats["method"] == f"direct search as {describe(desc)}"
    monkeypatch.setattr(solver, "cut_deficit", lambda net: None)
    for net, res in zip(CUT_NETS, bound):
        searched = solve_scalar(net, ring)
        assert searched.status == res.status
        assert "nodes" in searched.stats


def test_explicit_strategies_skip_the_bound(gf2, z4):
    net = wire2_network()
    for ring, strategy in ((gf2, "rank"), (gf2, "exhaustive"),
                           (z4, "exhaustive")):
        res = solve_scalar(net, ring, SearchOptions(strategy=strategy))
        assert res.status == "exhausted-unsolvable"
        assert res.stats["method"] == \
            f"direct search as {describe(ring.descriptor)}"
    verdict = smallest_ring_search(net, catalog=[PrimeField(2)]).verdicts[0]
    assert verdict.method == "direct search as GF(2)"


def test_sweep_to_256_answers_by_the_bound_without_building_a_ring(
        monkeypatch):
    net = cut_chain_network(3, 2)

    def refuse(*args):
        raise AssertionError("a ring was built")
    monkeypatch.setattr(solver, "construct_ring", refuse)
    t0 = time.perf_counter()
    report = smallest_ring_search(net, 256)
    assert time.perf_counter() - t0 < 2.0
    want = [describe(rings.simple_ring(r, q)) for n in range(2, 257)
            for r, q in rings.simple_rings(n)]
    assert len(want) == 73
    assert [v.name for v in report.verdicts] == want
    assert report.minimal_size is None and report.winners == []
    method = "cut-set bound at t: 1 edges for 3 messages"
    assert all(v.status == "exhausted-unsolvable" and v.method == method
               and v.code is None for v in report.verdicts)
    assert report.coverage.startswith(
        "complete for every ring and every module with two or more "
        "elements: " + method)


def test_the_one_element_ring_solves_past_the_bound():
    # over one symbol every message is zero, so every receiver decodes
    ring = construct_ring(TableRing([[0]], [[0]]))
    for net in (cut_chain_network(3, 2), funnel_network()):
        assert networks.cut_deficit(net) is not None
        res = solve_scalar(net, ring)
        assert res.status == "solved"
        assert codes.verify_solution(net, res.code).solved


def test_vector_search_answers_by_the_bound_once(monkeypatch, gf2):
    net = funnel_network()
    monkeypatch.setattr(solver, "_decide", lambda *args: 1 / 0)
    for k in (1, 2, 3):
        res = solve_vector(net, gf2, k)
        assert res.status == "exhausted-unsolvable"
        assert res.stats["method"] == "cut-set bound at t: 1 edges for " \
            "3 messages"
        assert res.stats["cut"] == {"receiver": "t", "owners": ["s"],
                                    "edges": [["s", "u", 0]],
                                    "messages": ["m1", "m2", "m3"]}


def test_vector_time_budget_bounds_the_whole_call(gf2):
    # dim 3 first searches dim 1 over GF(2), which fails, so no split is
    # tried, then M_3(GF(2)); each used to get the whole budget
    t0 = time.perf_counter()
    res = solve_vector(dim_n_network(3), gf2, 3,
                       SearchOptions(time_budget=0.3))
    assert time.perf_counter() - t0 < 0.45
    assert res.status == "budget-exceeded"
    assert res.stats["reason"] == "time budget exhausted"


def test_vector_node_budget_bounds_the_whole_call(gf2):
    # dim 2 first searches dim 1 over GF(2), then M_2(GF(2)); each used to
    # get the whole node budget, 20,001 + 20,001 nodes
    # (dimension 1 is settled in 51 nodes, so the budget stops it first)
    res = solve_vector(dim_n_network(3), gf2, 2,
                       SearchOptions(node_budget=40))
    assert res.status == "budget-exceeded"
    assert res.stats["total_nodes"] <= 41
    assert res.stats["method"] == "no node budget left for M_2(GF(2))"
    assert res.stats["reason"] == "node budget exhausted"
    # with budget to spare, both dimensions are searched and counted
    res = solve_vector(choose_two_network(6), gf2, 2,
                       SearchOptions(node_budget=20000))
    assert res.status == "exhausted-unsolvable"
    assert res.stats["total_nodes"] > res.stats["nodes"]


def test_time_budget_stops_the_exhaustive_search_within_a_chunk():
    # the relay network of test_exhaustive_witness_is_built_from_the_tables
    # decides 1,024 distinct input tuples, one block each, in one chunk
    net = networks.Network(
        ["s1", "s2", "s3", "s4", "s5", "u", "t"],
        [("s1", "t"), ("s2", "t"), ("s3", "u"), ("s4", "u"), ("u", "t")],
        [(f"x{i}", f"s{i}") for i in range(1, 6)], {"t": ("x3",)})
    ring = construct_ring(GaloisField(2, 5))
    t0 = time.perf_counter()
    res = solve_scalar(net, ring, SearchOptions(strategy="exhaustive",
                                                time_budget=0.05))
    assert time.perf_counter() - t0 < 0.3
    assert res.status == "budget-exceeded"
    assert res.stats["reason"] == "time budget exhausted"


def test_sweep_time_budget_bounds_the_whole_sweep():
    # each ring used to get the whole time budget (5 s for this sweep)
    t0 = time.perf_counter()
    report = smallest_ring_search(dim_n_network(3), 64,
                                  options=SearchOptions(time_budget=0.3))
    assert time.perf_counter() - t0 < 1.0
    statuses = [v.status for v in report.verdicts]
    first = statuses.index("budget-exceeded")
    assert set(statuses[first:]) == {"budget-exceeded"}
    assert report.verdicts[-1].method == "no time budget left for GF(2^6)"
    assert "not settled" in report.coverage


def test_sweep_node_budget_bounds_the_whole_sweep(monkeypatch):
    # a ring reached with no nodes left is neither built nor searched
    searched = []
    engine = solver._solve_rank

    def counted(net, ring, opts, budget, *rest):
        searched.append(budget)
        return engine(net, ring, opts, budget, *rest)
    monkeypatch.setattr(solver, "_solve_rank", counted)
    # the ten fields below 16 take 51 nodes each; M_2(GF(2)) lists 651
    # candidates a position, so the 990 nodes left start its search, which
    # takes 1,220
    report = smallest_ring_search(dim_n_network(3), 64,
                                  options=SearchOptions(node_budget=1500))
    stopped = [v for v in report.verdicts if v.status == "budget-exceeded"]
    assert stopped[0].method.startswith("direct search as ")
    assert all(v.method == f"no node budget left for {v.name}"
               for v in stopped[1:])
    assert len(searched) == len(report.verdicts) - len(stopped) + 1
    assert searched[0] == 1500 and searched == sorted(searched, reverse=True)


def test_a_candidate_refusal_spends_the_sweeps_node_budget():
    # the ten fields below 16 take 51 nodes each; M_2(GF(2)) lists 651
    # candidates a position, more than the 490 nodes left, so its search is
    # refused before its first node and charged the rest of the budget:
    # GF(17) and GF(19), which used to be searched and settled after it,
    # are stopped unsearched like every larger ring
    report = smallest_ring_search(dim_n_network(3), 64,
                                  options=SearchOptions(node_budget=1000))
    statuses = [v.status for v in report.verdicts]
    first = statuses.index("budget-exceeded")
    stop = report.verdicts[first]
    assert stop.name == "M_2(GF(2))"
    assert stop.method == "direct search as M_2(GF(2))"
    assert set(statuses[first:]) == {"budget-exceeded"}
    assert all(v.method == f"no node budget left for {v.name}"
               for v in report.verdicts[first + 1:])
    assert [v.name for v in report.verdicts[first + 1:first + 3]] == \
        ["GF(17)", "GF(19)"]


def test_a_candidate_refusal_spends_the_vector_node_budget(gf2):
    # dim 1 settles in 51 nodes; M_2(GF(2)) at dim 2 is refused for its
    # candidates, and dim 4's own M_4(GF(2)) search is then not started
    res = solve_vector(dim_n_network(3), gf2, 4,
                       SearchOptions(node_budget=300))
    assert res.status == "budget-exceeded"
    assert res.stats["method"] == "no node budget left for M_4(GF(2))"
    assert res.stats["total_nodes"] == 300


def test_a_quotient_search_shares_the_budget(z4):
    res = solve_scalar(m_network(), z4, SearchOptions(node_budget=1))
    assert res.status == "budget-exceeded"
    assert res.stats["method"] == "a quotient search ran out of budget"


@pytest.mark.parametrize("ring", [
    _table_copy(MatrixRing(PrimeField(2), 2)),
    construct_ring(Product((MatrixRing(PrimeField(2), 2),)))],
    ids=["table", "product"])
def test_a_simple_ring_in_another_form_is_searched_canonically(ring):
    # the witness over M_2(GF(2)) comes back through an isomorphism
    net = m_network()
    res = solve_scalar(net, ring)
    assert res.solved
    assert res.stats["method"] == "direct search as M_2(GF(2))"
    assert res.code.module.ring is ring
    assert codes.verify_solution(net, res.code).solved
    assert codes.semantic_verify(net, res.code).solved
    assert bruteforce.check_code(net, res.code)


@pytest.mark.parametrize("strategy, witness", [
    ("rank", "_rank_witness"), ("exhaustive", "_table_witness")])
def test_an_engine_witness_that_fails_verification_raises(
        monkeypatch, gf3, strategy, witness):
    # a witness is verified again before it is returned: one that breaks a
    # decoding is a bug in the engine, never a "solved" verdict
    build = getattr(solver, witness)

    def broken(*args):
        code = build(*args)
        first = next(iter(code.decodings))
        code.decodings[first] = (0,) * len(code.decodings[first])
        return code
    monkeypatch.setattr(solver, witness, broken)
    with pytest.raises(RuntimeError,
                       match="^reconstructed code failed verification: "):
        solve_scalar(choose_two_network(3), gf3,
                     SearchOptions(strategy=strategy))


def test_a_lifted_witness_is_verified_again(monkeypatch):
    # a witness carried back through an isomorphism is checked like an
    # engine's: a lift that breaks a decoding must not read as "solved"
    lift = solver._transforms.hom_lift

    def broken(code, hom, module):
        out = lift(code, hom, module)
        first = next(iter(out.decodings))
        out.decodings[first] = (0,) * len(out.decodings[first])
        return out
    monkeypatch.setattr(solver._transforms, "hom_lift", broken)
    with pytest.raises(RuntimeError,
                       match="^lifted code failed verification: "):
        solve_scalar(m_network(), _table_copy(MatrixRing(PrimeField(2), 2)))


def test_a_receiver_past_the_decode_budget_is_refused(z4):
    # 4^8 decode tuples for the receiver's 8 in-edges
    net = networks.Network(["s", "u", "t"],
                           [("s", "u")] + [("u", "t", i) for i in range(8)],
                           [("m", "s")], {"t": ("m",)})
    res = solve_scalar(net, z4, SearchOptions(strategy="exhaustive"))
    assert res.status == "budget-exceeded" and res.code is None
    assert "exceeds DECODE_BUDGET" in res.stats["reason"]


@pytest.mark.parametrize("strategy", solver.STRATEGIES)
def test_the_decode_budget_skips_receivers_without_demands(gf2, strategy):
    # t has 2^16 decode tuples but demands nothing, so no search decides it
    net = networks.Network(["s", "t", "u"],
                           [("s", "t", i) for i in range(16)] + [("s", "u")],
                           [("m", "s")], {"t": (), "u": ("m",)})
    res = solve_scalar(net, gf2, SearchOptions(strategy=strategy))
    assert res.status == "solved"
    assert codes.verify_solution(net, res.code).solved
    assert codes.semantic_verify(net, res.code).solved


@pytest.mark.parametrize("strategy", solver.STRATEGIES)
def test_a_node_without_inputs_is_refused(gf2, strategy):
    # u sends to t but has nothing to send; both engines used to crash
    net = networks.Network(["s", "u", "t"], [("s", "t"), ("u", "t")],
                           [("m", "s")], {"t": ("m",)})
    with pytest.raises(ValueError, match="node u sends on edges but has "
                                         "no inputs"):
        solve_scalar(net, gf2, SearchOptions(strategy=strategy))

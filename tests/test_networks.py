"""Network generators, validation, and serialization."""
import math

import pytest

import bruteforce
from conftest import (chain2_network, cut_chain_network, funnel_network,
                      pair_network, two_owner_network, wire2_network)
from netring import networks, rings, solver
from netring.networks import (Network, choose_two_network, cut_deficit,
                              dim_n_network, m_network, network_from_json,
                              network_to_json, trivial_network,
                              validate_network)


def test_m_network_shape():
    net = m_network()
    assert len(net.nodes) == 9
    assert len(net.edges) == 16
    assert len(net.messages) == 4
    assert set(net.receivers) == {"6", "7", "8", "9"}
    for r in net.receivers:
        heads = [e.tail for (kind, e) in net.inputs(r)]
        assert heads == ["3", "4", "5"]
    assert validate_network(net) == []


def test_m_network_demand_partition():
    net = m_network()
    seen = sorted(net.demands[r] for r in net.receivers)
    # every receiver wants one message from each source pair, all distinct
    assert len(set(seen)) == 4
    for wanted in seen:
        assert len(wanted) == 2


@pytest.mark.parametrize("n,nodes,edges", [(2, 9, 16), (3, 34, 198),
                                           (4, 265, 3344)])
def test_dim_n_counts(n, nodes, edges):
    net = dim_n_network(n)
    assert len(net.nodes) == nodes == n ** n + 2 * n + 1
    assert len(net.edges) == edges == n ** n * (n * n - n + 1) + n * n
    assert len(net.messages) == n * n
    assert len(net.receivers) == n ** n
    assert validate_network(net) == []


def test_dim_2_matches_m_network_shape():
    a, b = dim_n_network(2), m_network()
    assert len(a.nodes) == len(b.nodes)
    assert len(a.edges) == len(b.edges)
    assert sorted(len(a.demands[r]) for r in a.receivers) == \
        sorted(len(b.demands[r]) for r in b.receivers)


@pytest.mark.parametrize("n", [2, 3, 5, 12])
def test_choose_two_counts(n):
    net = choose_two_network(n)
    pairs = math.comb(n, 2)
    assert len(net.nodes) == 1 + n + pairs
    assert len(net.edges) == n + 2 * pairs
    assert net.message_names == ("m1", "m2")
    assert len(net.receivers) == pairs
    assert all(net.demands[r] == ("m1", "m2") for r in net.receivers)
    assert validate_network(net) == []


def test_generator_bounds():
    with pytest.raises(ValueError):
        dim_n_network(5)
    with pytest.raises(ValueError):
        choose_two_network(1)
    with pytest.raises(ValueError):
        choose_two_network(13)


def test_topo_orders_tails_before_heads():
    for net in (m_network(), dim_n_network(3), choose_two_network(4),
                trivial_network()):
        order = {v: i for i, v in enumerate(net.topo_nodes())}
        for e in net.edges:
            assert order[e.tail] < order[e.head]
        seen = set()
        for e in net.topo_edges():
            assert all((x.tail, x.head, x.ordinal) in seen
                       for x in net.in_edges(e.tail))
            seen.add((e.tail, e.head, e.ordinal))


def test_inputs_order_edges_then_messages():
    # a relay's in-edges by (tail, ordinal); a source's messages in the
    # order they are declared
    net = Network(
        ["a", "b", "c", "d"],
        [("b", "c", 0), ("a", "c", 1), ("a", "c", 0), ("c", "d", 0)],
        [("z", "a"), ("y", "b"), ("m", "a")],
        {"d": ("z", "m")})
    assert validate_network(net) == []
    kinds = [(kind, str(ref)) for kind, ref in net.inputs("c")]
    assert kinds == [("edge", "a->c"), ("edge", "a->c#1"), ("edge", "b->c")]
    assert net.inputs("a") == (("message", "z"), ("message", "m"))


def test_validate_flags_problems():
    cyclic = Network(["a", "b"], [("a", "b"), ("b", "a")], [("m", "a")],
                     {"b": ("m",)})
    issues = validate_network(cyclic)
    assert any("cycle" in i for i in issues)
    assert any("non-source" in i for i in issues)

    dangling = Network(["a", "b"], [("a", "x")], [("m", "a")], {"b": ("m",)})
    issues = validate_network(dangling)
    assert any("unknown node" in i for i in issues)
    assert any("no path" in i for i in issues)

    dup = Network(["a", "b"], [("a", "b"), ("a", "b")], [("m", "a")],
                  {"b": ("m", "ghost")})
    issues = validate_network(dup)
    assert any("duplicate edge" in i for i in issues)
    assert any("unknown message" in i for i in issues)

    loop = Network(["a"], [("a", "a")], [], {})
    assert any("self-loop" in i for i in validate_network(loop))


def test_validate_reports_a_node_that_sends_without_inputs():
    # u has neither in-edges nor messages, so u->t would carry nothing
    net = Network(["s", "u", "t"], [("s", "t"), ("u", "t")], [("m", "s")],
                  {"t": ("m",)})
    assert validate_network(net) == ["node u sends on edges but has no inputs"]
    # one that sends nothing is harmless
    idle = Network(["s", "u", "t"], [("s", "t")], [("m", "s")], {"t": ("m",)})
    assert validate_network(idle) == []


def test_validate_lists_each_unreachable_demand_in_order():
    # s2 feeds only t2, so t1 cannot get y or z, and t2 cannot get x
    net = Network(["s1", "s2", "t1", "t2"],
                  [("s1", "t1"), ("s2", "t2")],
                  [("x", "s1"), ("y", "s2"), ("z", "s2")],
                  {"t1": ("y", "x", "z"), "t2": ("x", "y")})
    assert validate_network(net) == [
        "no path from s2 to t1 for message y",
        "no path from s2 to t1 for message z",
        "no path from s1 to t2 for message x",
    ]
    # an owner counts as reaching itself
    own = Network(["s"], [], [("x", "s")], {"s": ("x",)})
    assert validate_network(own) == []


def test_validate_reads_a_repeated_relay_as_a_duplicate_only():
    # a -> b -> c has no cycle; b listed twice is one node listed twice
    net = Network(["a", "b", "b", "c"], [("a", "b"), ("b", "c")],
                  [("m", "a")], {"c": ("m",)})
    assert validate_network(net) == ["duplicate node ids"]
    with pytest.raises(ValueError, match="^invalid network: duplicate "
                                         "node ids$"):
        net.topo_nodes()


def test_validate_reports_an_unknown_owner_without_crashing():
    net = Network(["a", "b"], [("a", "b")], [("x", "ghost")], {"b": ("x",)})
    assert validate_network(net) == [
        "message x owned by unknown node ghost",
        "node a sends on edges but has no inputs",
        "no path from ghost to b for message x",
    ]


def test_json_round_trip():
    for net in (m_network(), choose_two_network(3), trivial_network()):
        back = network_from_json(network_to_json(net))
        assert back.nodes == net.nodes
        assert back.edges == net.edges
        assert back.messages == net.messages
        assert back.demands == net.demands


def test_edge_display_names():
    net = m_network()
    plain = [str(e) for e in net.edges[:2]]
    assert all("->" in s for s in plain)
    two = Network(["a", "b"], [("a", "b", 0), ("a", "b", 1)],
                  [("m", "a")], {"b": ("m",)})
    assert [str(e) for e in two.edges] == ["a->b", "a->b#1"]


def test_orders_and_inputs_are_computed_once():
    net = m_network()
    nodes, edges = net.topo_nodes(), net.topo_edges()
    assert net.topo_nodes() is nodes and net.topo_edges() is edges
    fresh = Network(net.nodes, net.edges, net.messages, net.demands)
    assert fresh.topo_nodes() == nodes
    assert fresh.topo_edges() == edges
    for v in net.nodes:
        assert net.inputs(v) is net.inputs(v)
        assert net.inputs(v) == tuple(
            [("edge", e) for e in net.in_edges(v)]
            + [("message", m) for m, owner in net.messages if owner == v])


def test_a_cycle_raises_on_every_call():
    net = Network(["a", "b"], [("a", "b"), ("b", "a")], [], {})
    for _ in range(2):
        with pytest.raises(ValueError, match="cycle"):
            net.topo_nodes()
        with pytest.raises(ValueError, match="cycle"):
            net.topo_edges()


def test_a_json_network_is_validated_once(monkeypatch):
    net = network_from_json(network_to_json(m_network()))
    cyclic = Network(["a", "b"], [("a", "b"), ("b", "a")], [], {})

    def refuse(*args):
        raise AssertionError("the network was validated again")
    # validation runs in the pass that reads a network, and only a network
    # that fails its screens is walked issue by issue
    monkeypatch.setattr(networks.Network, "__init__", refuse)
    monkeypatch.setattr(networks, "_issues", refuse)
    res = solver.solve_scalar(net, rings.construct_ring(rings.PrimeField(2)))
    assert res.status == "exhausted-unsolvable"
    validate_network(cyclic).append("changed by the caller")
    assert validate_network(cyclic) == ["network contains a cycle"]


CUT_DEFICIENT = ([cut_chain_network(k, chain, decoys) for k in (2, 3)
                  for chain in (0, 1, 2) for decoys in (0, 2)]
                 + [wire2_network(), funnel_network(), two_owner_network()])


@pytest.mark.parametrize("net", CUT_DEFICIENT)
def test_every_reported_cut_is_rechecked_by_search(net):
    # an independent walk over the edge list: the cut must separate the
    # owners from the receiver and be narrower than their messages
    r, owners, msgs, cut = cut_deficit(net)
    assert set(cut) <= set(net.edges)
    assert bruteforce.separates(net, owners, cut, r)
    assert set(msgs) == bruteforce.owned_demands(net, r, owners)
    assert len(cut) < len(msgs)
    assert bruteforce.cut_set_violated(net)


def test_the_cut_lies_where_the_flow_stops():
    assert cut_deficit(cut_chain_network(3, 2)) == (
        "t", ("s",), ("m1", "m2", "m3"), (networks.Edge("v2", "t"),))
    # t's in-degree would carry three messages; the flow finds s->u
    assert cut_deficit(funnel_network()) == (
        "t", ("s",), ("m1", "m2", "m3"), (networks.Edge("s", "u"),))
    # every message has a path and all three fit t's in-edges together,
    # but s2's two share u->t
    assert cut_deficit(two_owner_network()) == (
        "t", ("s2",), ("m2", "m3"), (networks.Edge("u", "t"),))


@pytest.mark.parametrize("net", [m_network(), dim_n_network(2),
                                 dim_n_network(3), pair_network(),
                                 chain2_network(), trivial_network()]
                         + [choose_two_network(n) for n in range(3, 8)])
def test_the_bound_never_fires_on_solvable_families(net):
    assert cut_deficit(net) is None


def test_flow_cancels_a_path_to_make_room():
    # the first path s1->a->t blocks s2 until it is rerouted over s1->b
    net = Network(["s1", "s2", "a", "b", "t"],
                  [("s1", "a"), ("s1", "b"), ("s2", "a"), ("a", "t"),
                   ("b", "t")],
                  [("x", "s1"), ("y", "s2")], {"t": ("x", "y")})
    assert cut_deficit(net) is None
    assert not bruteforce.cut_set_violated(net)


def test_a_lone_demand_or_one_owned_by_the_receiver_is_skipped():
    # a receiver that owns its demands needs no edge at all
    own = Network(["t"], [], [("x", "t"), ("y", "t")], {"t": ("x", "y")})
    assert validate_network(own) == [] and cut_deficit(own) is None
    # a message demanded twice is one message
    lone = Network(["s", "t"], [("s", "t")], [("x", "s")], {"t": ("x", "x")})
    assert validate_network(lone) == [] and cut_deficit(lone) is None


def test_the_deficit_is_computed_once(monkeypatch):
    net = cut_chain_network(3, 1)
    first = cut_deficit(net)
    monkeypatch.setattr(networks, "_first_deficit", lambda net: 1 / 0)
    assert cut_deficit(net) is first
    solvable = m_network()
    monkeypatch.undo()
    assert cut_deficit(solvable) is None
    monkeypatch.setattr(networks, "_first_deficit", lambda net: 1 / 0)
    assert cut_deficit(solvable) is None

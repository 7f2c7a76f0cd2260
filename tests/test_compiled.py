"""The compiled network: edge ids and int inputs, built once per Network.

Every search, witness and verifier reads one compiled form of a network
(networks module notes): edge ids in topological order, each node's
inputs as ints (an in-edge's id, or ~m for message m) and each
receiver's demands as message indices.  It is built on first use, shared
by every reader, and never built for a cyclic network.
"""
import pytest

from conftest import cut_chain_network, pair_network
from netring import codes, modules, networks, solver
from netring.codes import (LinearCode, semantic_verify, transfer_vectors,
                           verify_solution)
from netring.networks import (Network, choose_two_network, cut_deficit,
                              dim_n_network, m_network)
from netring.rings import PrimeField, construct_ring
from netring.solver import SearchOptions, solve_scalar

GF2, GF3 = construct_ring(PrimeField(2)), construct_ring(PrimeField(3))


def _fresh(net: Network) -> Network:
    return Network(net.nodes, net.edges, net.messages, net.demands)


@pytest.mark.parametrize("net", [m_network(), dim_n_network(2),
                                 choose_two_network(4), pair_network(),
                                 cut_chain_network(3, 2)])
def test_inputs_follow_the_int_rule(net):
    cn = net.compiled()
    assert cn.edges == net.topo_edges()
    ids = dict(zip(net.edges, cn.ids))
    assert [cn.edges[i] for i in cn.ids] == list(net.edges)
    names = net.message_names
    for v in net.nodes:
        i = cn.index[v]
        assert net.nodes[i] == v
        assert cn.inputs[i] == tuple(
            ids[x] if kind == "edge" else ~names.index(x)
            for kind, x in net.inputs(v))
        assert cn.into[i] == [ids[e] for e in net.in_edges(v)]
        assert cn.out_of[i] == [ids[e] for e in net.out_edges(v)]
    for e, i in ids.items():
        assert (net.nodes[cn.tails[i]], net.nodes[cn.heads[i]]) == \
            (e.tail, e.head)
    assert cn.receivers == [(r, cn.index[r],
                             tuple(names.index(m) for m in net.demands[r]))
                            for r in net.receivers]


def test_one_compiled_form_serves_every_reader(monkeypatch):
    built = []
    real = networks.Compiled

    def counted(*fields):
        cn = real(*fields)
        built.append(cn)
        return cn
    monkeypatch.setattr(networks, "Compiled", counted)
    net = choose_two_network(4)
    assert cut_deficit(net) is None
    cn = net.compiled()
    assert net.compiled() is cn and built == [cn]
    shape = solver._Shape(net, SearchOptions())
    plan, _ = solver._table_slots(net, 3, SearchOptions())
    assert shape.plan.compiled is cn and plan.compiled is cn
    res = solve_scalar(net, GF3, SearchOptions(strategy="rank"))
    raw = solve_scalar(net, GF3, SearchOptions(strategy="exhaustive"))
    assert res.solved and raw.solved
    for code in (res.code, raw.code):
        assert verify_solution(net, code).solved
        assert semantic_verify(net, code).solved
        assert set(transfer_vectors(net, code)) == set(net.edges)
    assert built == [cn]


def _cyclic():
    """s feeds a, and a and b feed each other before b reaches t."""
    net = Network(["s", "a", "b", "t"],
                  [("s", "a"), ("a", "b"), ("b", "a"), ("b", "t")],
                  [("m", "s")], {"t": ("m",)})
    code = LinearCode(modules.scalar_module(GF2),
                      {("s", "a", 0): (1,), ("a", "b", 0): (1, 0),
                       ("b", "a", 0): (1,), ("b", "t", 0): (1,)},
                      {("t", "m"): (1,)})
    return net, code


@pytest.mark.parametrize("reader", [
    lambda net, code: net.compiled(),
    lambda net, code: cut_deficit(net),
    lambda net, code: codes.check_shape(net, code),
    lambda net, code: verify_solution(net, code),
    lambda net, code: semantic_verify(net, code),
    lambda net, code: transfer_vectors(net, code),
    lambda net, code: solver._Shape(net, SearchOptions()),
    lambda net, code: solver._table_slots(net, 2, SearchOptions()),
], ids=["compiled", "cut", "shape-check", "verify", "semantic", "transfer",
        "rank-shape", "table-plan"])
def test_a_cycle_raises_from_every_reader(reader):
    net, code = _cyclic()
    for _ in range(2):
        with pytest.raises(ValueError, match="^network contains a cycle$"):
            reader(net, code)
    assert "_compiled" not in vars(net)
    with pytest.raises(ValueError, match="invalid network: network "
                                         "contains a cycle"):
        solve_scalar(net, GF2)


def test_a_code_keyed_by_edge_tuples_still_verifies():
    net = choose_two_network(3)
    res = solve_scalar(net, GF2)
    assert res.solved
    by_tuple = {(e.tail, e.head, e.ordinal): c
                for e, c in res.code.edge_coeffs.items()}
    code = LinearCode(res.code.module, by_tuple, res.code.decodings)
    assert verify_solution(_fresh(net), code).solved
    assert semantic_verify(_fresh(net), code).solved
    assert transfer_vectors(net, code) == transfer_vectors(net, res.code)

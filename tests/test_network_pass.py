"""The one-pass network reader against the front end it replaced.

Network.__init__ reads, validates and compiles a network in one pass over
ints (networks module notes).  The reference below is the earlier front
end, kept here unchanged apart from its names and two rules (a network
is acyclic when the sorted-ready order places every distinct name, so a
repeated name is a duplicate and no cycle, and a node's in-degree counts
only its in-edges from listed nodes, so an edge from an unknown tail is
no cycle either): a constructor that keeps
Edge-keyed in- and out-lists, the validate_network walk over them, the
sorted-ready topological order and the Compiled form re-derived from all
of it.  On every network, valid or not, both must give the same issue
list (text and order), message_names and receivers.  On a valid network
they must also give the same topo_nodes and topo_edges, equal Compiled
fields, the same in_edges, out_edges and inputs, and the same
cut_deficit; on a network with an issue, the pass must refuse all six
accessors and cut_deficit.
"""
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import conftest
from netring import networks
from netring.networks import (Edge, Network, choose_two_network,
                              cut_deficit, dim_n_network, m_network,
                              network_from_json, network_to_json,
                              trivial_network, validate_network)
from test_generated import networks as valid_networks


class RefNetwork:
    def __init__(self, nodes, edges, messages, demands):
        self.nodes = tuple(nodes)
        self.edges = tuple(Edge(*e) if not isinstance(e, Edge) else e
                           for e in edges)
        self.messages = tuple((str(m), str(owner)) for (m, owner) in messages)
        self.demands = {str(r): tuple(ms) for r, ms in dict(demands).items()}
        self._in = {v: [] for v in self.nodes}
        self._out = {v: [] for v in self.nodes}
        for e in self.edges:
            for v in (e.head, e.tail):
                self._in.setdefault(v, [])
                self._out.setdefault(v, [])
            self._in[e.head].append(e)
            self._out[e.tail].append(e)
        for v in self._in:
            self._in[v].sort(key=lambda e: (e.tail, e.ordinal))
            self._out[v].sort(key=lambda e: (e.head, e.ordinal))
        self._owned = {v: [m for (m, owner) in self.messages if owner == v]
                       for v in self.nodes}

    @property
    def message_names(self):
        return tuple(m for (m, _) in self.messages)

    @property
    def receivers(self):
        return tuple(sorted(self.demands))

    def in_edges(self, node):
        return tuple(self._in[node])

    def out_edges(self, node):
        return tuple(self._out[node])

    def inputs(self, node):
        return (tuple(("edge", e) for e in self._in[node])
                + tuple(("message", m) for m in self._owned[node]))

    def topo_nodes(self):
        known = set(self.nodes)
        indeg = {v: sum(e.tail in known for e in self._in[v])
                 for v in self.nodes}
        ready = sorted(v for v in indeg if indeg[v] == 0)
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            bump = set()
            for e in self._out[v]:
                if e.head not in indeg:
                    continue
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    bump.add(e.head)
            if bump:
                ready = sorted(set(ready) | bump)
        if len(order) != len(set(self.nodes)):
            raise ValueError("network contains a cycle")
        return tuple(order)

    def topo_edges(self):
        rank = {v: i for i, v in enumerate(self.topo_nodes())}
        return tuple(sorted(
            self.edges,
            key=lambda e: (rank[e.tail], e.tail, e.ordinal, e.head)))

    def compiled(self):
        return RefCompiled(self)


class RefCompiled:
    def __init__(self, net):
        edges = self.edges = net.topo_edges()
        at = {id(e): i for i, e in enumerate(edges)}
        self.ids = [at[id(e)] for e in net.edges]
        index = self.index = {v: i for i, v in enumerate(net.nodes)}
        mpos = {m: i for i, m in enumerate(net.message_names)}
        self.tails = [index[e.tail] for e in edges]
        self.heads = [index[e.head] for e in edges]
        self.into = [[at[id(e)] for e in net._in[v]] for v in net.nodes]
        self.out_of = [[at[id(e)] for e in net._out[v]] for v in net.nodes]
        self.inputs = [tuple(into + [~mpos[m] for m in net._owned[v]])
                       for v, into in zip(net.nodes, self.into)]
        self.receivers = [(r, index[r], tuple([mpos[m] for m in ms]))
                          for r, ms in sorted(net.demands.items())]


def ref_validate(net):
    issues = []
    if len(set(net.nodes)) != len(net.nodes):
        issues.append("duplicate node ids")
    node_set = set(net.nodes)
    seen_edges = set()
    for e in net.edges:
        if e.tail not in node_set or e.head not in node_set:
            issues.append(f"edge {e} touches an unknown node")
        if (e.tail, e.head, e.ordinal) in seen_edges:
            issues.append(f"duplicate edge {e}")
        seen_edges.add((e.tail, e.head, e.ordinal))
        if e.tail == e.head:
            issues.append(f"self-loop {e}")
    names = [m for (m, _) in net.messages]
    if len(set(names)) != len(names):
        issues.append("duplicate message names")
    for (m, owner) in net.messages:
        if owner not in node_set:
            issues.append(f"message {m} owned by unknown node {owner}")
        elif net.in_edges(owner):
            issues.append(f"message {m} owned by non-source node {owner}")
    for v in dict.fromkeys(net.nodes):
        if net._out[v] and not (net._in[v] or net._owned[v]):
            issues.append(f"node {v} sends on edges but has no inputs")
    try:
        net.topo_nodes()
        acyclic = True
    except ValueError:
        issues.append("network contains a cycle")
        acyclic = False
    owners = dict((m, owner) for (m, owner) in net.messages)
    reach = {}
    for r, wanted in net.demands.items():
        if r not in node_set:
            issues.append(f"receiver {r} is not a node")
            continue
        for m in wanted:
            if m not in owners:
                issues.append(f"receiver {r} demands unknown message {m}")
            elif acyclic:
                owner = owners[m]
                if owner not in reach:
                    reach[owner] = _ref_reach_set(net, owner)
                if r not in reach[owner]:
                    issues.append(
                        f"no path from {owner} to {r} for message {m}")
    return issues


def _ref_reach_set(net, src):
    seen = {src}
    stack = [src]
    while stack:
        for e in net._out.get(stack.pop(), ()):
            if e.head not in seen:
                seen.add(e.head)
                stack.append(e.head)
    return seen


# ---------------------------------------------------------------------------

def _fields(cn):
    return {k: getattr(cn, k) for k in ("edges", "ids", "index", "tails",
                                        "heads", "into", "out_of", "inputs",
                                        "receivers")}


def assert_refused(net, issues):
    """Every accessor of a network with issues raises: the cycle text if
    it has one, else every issue."""
    text = ("network contains a cycle" if "network contains a cycle" in issues
            else "invalid network: " + "; ".join(issues))
    for call in (net.topo_nodes, net.topo_edges, net.compiled,
                 lambda: net.in_edges("a"), lambda: net.out_edges("a"),
                 lambda: net.inputs("a"), lambda: cut_deficit(net)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == text


def assert_same_front_end(nodes, edges, messages, demands):
    net = Network(nodes, edges, messages, demands)
    ref = RefNetwork(nodes, edges, messages, demands)
    issues = ref_validate(ref)
    assert validate_network(net) == issues
    assert net.message_names == ref.message_names
    assert net.receivers == ref.receivers
    if issues:
        assert_refused(net, issues)
        return net
    for name in ref.nodes:
        assert net.in_edges(name) == ref.in_edges(name)
        assert net.out_edges(name) == ref.out_edges(name)
        assert net.inputs(name) == ref.inputs(name)
    assert net.topo_nodes() == ref.topo_nodes()
    assert net.topo_edges() == ref.topo_edges()
    assert _fields(net.compiled()) == _fields(ref.compiled())
    assert cut_deficit(net) == networks._first_deficit(ref)
    return net


def _args(net):
    return net.nodes, net.edges, net.messages, net.demands


STOCK = [m_network(), dim_n_network(2), dim_n_network(3), trivial_network(),
         conftest.pair_network(), conftest.chain2_network(),
         conftest.funnel_network(), conftest.two_owner_network(),
         conftest.wire2_network()] \
    + [choose_two_network(n) for n in (2, 3, 6)] \
    + [conftest.cut_chain_network(k, c, d) for k in (2, 3) for c in (0, 2)
       for d in (0, 2)]


def test_stock_networks_read_as_before():
    for net in STOCK:
        assert_same_front_end(*_args(net))
        data = network_to_json(net)
        back = network_from_json(data)
        assert_same_front_end(data["nodes"], data["edges"], data["messages"],
                              data["demands"])
        assert back.compiled() == net.compiled()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(valid_networks())
def test_generated_networks_read_as_before(net):
    assert_same_front_end(*_args(net))
    # declared in reverse: every edge number and tie changes place
    assert_same_front_end(net.nodes[::-1], net.edges[::-1],
                          net.messages[::-1], net.demands)


INVALID = {
    "unknown head": (["a", "b"], [("a", "x")], [("m", "a")], {"b": ("m",)}),
    "unknown tail": (["a", "b"], [("x", "b"), ("a", "b")], [("m", "a")],
                     {"b": ("m",)}),
    "unknown both": (["a", "b"], [("x", "y"), ("a", "b")], [("m", "a")],
                     {"b": ("m",)}),
    "path through unknown nodes": (
        ["a", "a", "b"], [("a", "x"), ("x", "b"), ("a", "b")],
        [("m", "a")], {"b": ("m",)}),
    "repeated source": (["a", "a", "b"], [("a", "b")], [("m", "a")],
                        {"b": ("m",)}),
    "repeated source, three times": (
        ["c", "a", "a", "b", "a"], [("a", "b"), ("c", "b"), ("b", "d")],
        [("m", "a"), ("w", "c")], {"b": ("m", "w")}),
    "repeated source, bumped between its copies": (
        ["a", "a", "a", "b"], [("a", "b")], [("m", "a")], {"b": ("m",)}),
    "repeated source, ordered around its head": (
        ["b", "b", "a", "c"], [("b", "a"), ("a", "c")], [("m", "b")],
        {"c": ("m",)}),
    "repeated relay": (["a", "b", "b", "c"], [("a", "b"), ("b", "c")],
                       [("m", "a")], {"c": ("m",)}),
    "repeated source, early bump": (
        ["a", "b", "b", "c"], [("a", "c"), ("b", "c"), ("b", "c", 1)],
        [("m", "a"), ("w", "b")], {"c": ("m", "w")}),
    "repeated source with an unknown tail": (
        ["a", "a", "b"], [("a", "b"), ("x", "b")], [("m", "a")],
        {"b": ("m",)}),
    "duplicate edges": (["a", "b"], [("a", "b"), ("a", "b"), ("a", "b", 1)],
                        [("m", "a")], {"b": ("m", "ghost")}),
    "duplicate messages": (["a", "b", "c"], [("a", "c"), ("b", "c")],
                           [("m", "a"), ("m", "b"), ("w", "a")],
                           {"c": ("m", "w")}),
    "self-loop": (["a"], [("a", "a")], [], {}),
    "self-loop on a relay": (["s", "u", "t"],
                             [("s", "u"), ("u", "u"), ("u", "t")],
                             [("m", "s")], {"t": ("m",)}),
    "cycle": (["a", "b"], [("a", "b"), ("b", "a")], [("m", "a")],
              {"b": ("m",)}),
    "cycle behind a source": (["s", "a", "b", "t"],
                              [("s", "a"), ("a", "b"), ("b", "a"),
                               ("b", "t")],
                              [("m", "s")], {"t": ("m",)}),
    "sends without inputs": (["s", "u", "t"], [("s", "t"), ("u", "t")],
                             [("m", "s")], {"t": ("m",)}),
    "unreachable demands": (["s1", "s2", "t1", "t2"],
                            [("s1", "t1"), ("s2", "t2")],
                            [("x", "s1"), ("y", "s2"), ("z", "s2")],
                            {"t1": ("y", "x", "z"), "t2": ("x", "y")}),
    "unknown owner": (["a", "b"], [("a", "b")], [("x", "ghost")],
                      {"b": ("x",)}),
    "owner reaching over a dangling edge": (
        ["b", "c"], [("g", "b"), ("b", "c")], [("x", "g")], {"c": ("x",)}),
    "receiver not a node": (["s", "t"], [("s", "t")], [("m", "s")],
                            {"t": ("m",), "r": ("m",)}),
    "message owned by a relay": (["s", "u", "t"], [("s", "u"), ("u", "t")],
                                 [("m", "s"), ("w", "u")],
                                 {"t": ("m", "w")}),
    "everything at once": (["a", "b", "b", "c"],
                           [("a", "b"), ("b", "c"), ("c", "b"), ("a", "a"),
                            ("a", "z"), ("a", "b")],
                           [("m", "a"), ("m", "c"), ("w", "q")],
                           {"c": ("m", "w", "v"), "z": ("m",)}),
}


def test_hand_built_invalid_networks_read_as_before():
    for args in INVALID.values():
        net = assert_same_front_end(*args)
        assert validate_network(net)


def test_an_edge_from_an_unknown_tail_is_no_cycle():
    # the edge counts toward no in-degree, so the no-path checks run
    assert validate_network(Network(*INVALID["unknown tail"])) == [
        "edge x->b touches an unknown node"]
    assert validate_network(Network(
        *INVALID["repeated source with an unknown tail"])) == [
        "duplicate node ids", "edge x->b touches an unknown node"]
    assert validate_network(Network(
        ["a", "b", "c"], [("x", "b"), ("a", "c")], [("m", "a")],
        {"b": ("m",)})) == ["edge x->b touches an unknown node",
                            "no path from a to b for message m"]


def test_edges_of_mixed_forms_read_as_before():
    # an Edge, a [tail, head] and a [tail, head, ordinal] in one list are
    # normalised entry by entry before the columns are read
    assert_same_front_end(
        ["s", "a", "t"], [Edge("s", "a"), ("s", "t"), ["a", "t", 1]],
        [("m", "s"), ["w", "s"]], {"t": ["m", "w"], "a": ("m",)})


@pytest.mark.parametrize("edges, messages, text", [
    ([("s", "t", 0), ("s", "t", 1, "x")], [("m", "s")], "edges[1] is [tail"),
    ([("s", "t", 0), ("s",)], [("m", "s")], "edges[1] is [tail"),
    ([("s", "t", 0), "st"], [("m", "s")], "edges[1] is [tail"),
    ([("s", "t", 0)], [("m", "s"), ("w", "s", "x")], "messages[1] is a"),
    ([("s", "t", 0)], [("m", "s"), "ws"], "messages[1] is a"),
])
def test_an_entry_of_the_wrong_shape_is_named(edges, messages, text):
    with pytest.raises(ValueError, match=re.escape(text)):
        Network(["s", "t"], edges, messages, {"t": ["m"]})


def test_a_cycle_or_an_unknown_name_refuses_the_compiled_form():
    cyclic = Network(*INVALID["cycle"])
    assert_refused(cyclic, validate_network(cyclic))
    with pytest.raises(ValueError, match="^network contains a cycle$"):
        cyclic.inputs("a")
    dangling = Network(*INVALID["unknown head"])
    with pytest.raises(ValueError, match=re.escape(
            "invalid network: edge a->x touches an unknown node; "
            "no path from a to b for message m")):
        dangling.topo_edges()


NAMES = ["a", "b", "c", "d", "x"]      # x is never listed as a node


@st.composite
def any_networks(draw):
    """Small networks of any shape over a few names: repeated nodes,
    unknown names, cycles, self-loops and repeated edges and messages."""
    nodes = draw(st.lists(st.sampled_from(NAMES[:4]), max_size=6))
    name = st.sampled_from(NAMES)
    edges = draw(st.lists(st.tuples(name, name, st.integers(0, 1)),
                          max_size=7))
    msgs = draw(st.lists(st.tuples(st.sampled_from(["m", "w", "y"]), name),
                         max_size=3))
    demands = draw(st.dictionaries(
        name, st.lists(st.sampled_from(["m", "w", "y", "z"]), max_size=3)
        .map(tuple), max_size=3))
    return nodes, edges, msgs, demands


@settings(max_examples=400, deadline=None, derandomize=True)
@given(any_networks())
def test_networks_of_any_shape_read_as_before(args):
    assert_same_front_end(*args)


def test_a_well_formed_network_passes_the_screens(monkeypatch):
    # the issue by issue walk is for networks that fail a screen of the
    # pass; a well-formed one, from JSON or Python, never reaches it
    def refuse(*args):
        raise AssertionError("a well-formed network was walked")
    monkeypatch.setattr(networks, "_issues", refuse)
    for net in STOCK:
        assert not validate_network(Network(*_args(net)))
        data = network_to_json(net)
        assert not validate_network(network_from_json(data))

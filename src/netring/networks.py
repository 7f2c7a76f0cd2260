"""Directed acyclic message networks.

A network is a DAG with parallel edges (distinguished by an ordinal), source
messages owned by nodes, and per-receiver demands.  The inputs of a node are
its in-edges sorted by (tail id, ordinal) followed by the messages it owns in
declaration order; every coefficient list in a linear code is aligned with
that order, so it is fixed here once and used everywhere.  Generator node ids
zero-pad numeric suffixes so that the string sort agrees with numeric order.

The searches, the witnesses, the verifiers and the cut bound all walk
that same thing, each node's inputs, so a network compiles once, on first
use (Network.compiled), to ints that all of them read.  An edge's id is its position in topo_edges().
An input is an int: the id of the in-edge it is, or ~m for the m-th
message of message_names.  Per node the compiled form lists its inputs in
that order and the ids of its in- and out-edges; per receiver, its
demands as message indices.  Edges and names stay at the boundary: codes
are keyed by Edge, and results name nodes and messages.

cut_deficit checks the cut-set bound, which no code over any alphabet of
two or more symbols can beat: a receiver decodes the messages owned in a
set of nodes O only if every cut between O and the receiver has at least
that many edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product


_UNSET = object()


@dataclass(frozen=True, order=True)
class Edge:
    tail: str
    head: str
    ordinal: int = 0

    def __str__(self):
        tag = f"#{self.ordinal}" if self.ordinal else ""
        return f"{self.tail}->{self.head}{tag}"


class Network:
    def __init__(self, nodes, edges, messages, demands):
        self.nodes = tuple(nodes)
        self.edges = tuple(Edge(*e) if not isinstance(e, Edge) else e for e in edges)
        self.messages = tuple((str(m), str(owner)) for (m, owner) in messages)
        self.demands = {str(r): tuple(ms) for r, ms in dict(demands).items()}
        self._in = {v: [] for v in self.nodes}
        self._out = {v: [] for v in self.nodes}
        for e in self.edges:
            # tolerate edges at unknown endpoints so validate_network can
            # report them instead of the constructor blowing up
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
        # a network is never changed after construction, so the orders,
        # inputs, issues, compiled form, cut-set deficit and the rank
        # search's compiled shapes (solver._Shape, one per forwarding
        # setting) are computed once; a cycle is not cached and raises again
        self._inputs = {}
        self._topo_nodes = self._topo_edges = self._issues = None
        self._compiled = None
        self._deficit = _UNSET
        self._shapes = {}

    def __repr__(self):
        return (f"Network({len(self.nodes)} nodes, {len(self.edges)} edges, "
                f"{len(self.messages)} messages, {len(self.demands)} receivers)")

    @property
    def message_names(self):
        return tuple(m for (m, _) in self.messages)

    @property
    def receivers(self):
        return tuple(sorted(self.demands))

    def in_edges(self, node: str):
        return tuple(self._in[node])

    def out_edges(self, node: str):
        return tuple(self._out[node])

    def inputs(self, node: str):
        """The node's inputs: ("edge", Edge) then ("message", name)
        entries; compiled() holds them as ints (module notes)."""
        out = self._inputs.get(node)
        if out is None:
            out = self._inputs[node] = (
                tuple(("edge", e) for e in self._in[node])
                + tuple(("message", m) for m in self._owned[node]))
        return out

    def topo_nodes(self):
        if self._topo_nodes is not None:
            return self._topo_nodes
        indeg = {v: len(self._in[v]) for v in self.nodes}
        ready = sorted(v for v in self.nodes if indeg[v] == 0)
        order = []
        while ready:
            v = ready.pop(0)
            order.append(v)
            bump = set()
            for e in self._out[v]:
                if e.head not in indeg:
                    continue  # dangling edge; validate_network reports it
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    bump.add(e.head)
            if bump:
                ready = sorted(set(ready) | bump)
        if len(order) != len(self.nodes):
            raise ValueError("network contains a cycle")
        self._topo_nodes = tuple(order)
        return self._topo_nodes

    def topo_edges(self):
        if self._topo_edges is None:
            rank = {v: i for i, v in enumerate(self.topo_nodes())}
            self._topo_edges = tuple(sorted(
                self.edges,
                key=lambda e: (rank[e.tail], e.tail, e.ordinal, e.head)))
        return self._topo_edges

    def compiled(self) -> "Compiled":
        """The network as ints (module notes), built on first use."""
        if self._compiled is None:
            self._compiled = Compiled(self)
        return self._compiled


class Compiled:
    """A network as ints (module notes); a cycle raises ValueError.

    edges:         the edges in topological order; an edge's id is its index.
    ids:           per edge of Network.edges, in declaration order, its id.
    index:         node -> its index in Network.nodes.
    tails, heads:  per edge id, the indices of its end nodes.
    into, out_of:  per node index, the ids of its in-edges (in inputs()
                   order) and of its out-edges (by head, then ordinal).
    inputs:        per node index, its inputs: its in-edges' ids, then ~m
                   for each message m it owns.
    receivers:     (name, node index, demanded message indices) per
                   receiver, by name.
    """

    def __init__(self, net: Network):
        edges = self.edges = net.topo_edges()
        # by identity, which hashes an int and not the Edge's fields: the
        # orders and the in- and out-lists hold the objects of net.edges
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


def validate_network(net: Network) -> list[str]:
    """List of structural problems; empty means the network is well-formed."""
    if net._issues is not None:
        return list(net._issues)
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
    reach = {}      # owner -> every node it reaches, itself included
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
                    reach[owner] = _reach_set(net, owner)
                if r not in reach[owner]:
                    issues.append(
                        f"no path from {owner} to {r} for message {m}")
    net._issues = tuple(issues)
    return issues


def _reach_set(net: Network, src: str) -> set:
    """src and every node a directed path leads to from it; an unknown src
    (reported separately) reaches whatever its dangling edges lead to."""
    seen = {src}
    stack = [src]
    while stack:
        for e in net._out.get(stack.pop(), ()):
            if e.head not in seen:
                seen.add(e.head)
                stack.append(e.head)
    return seen


def cut_deficit(net: Network):
    """None, or the first (receiver, owners, messages, cut edges) that
    breaks the cut-set bound, on a network validate_network accepts.

    Give a receiver t every message it does not demand for free, and let S
    be its demands owned in the nodes O.  What t hears is then a function
    of the edges of any cut between O and t, so t decodes S only if each
    such cut has at least |S| edges, whatever the code and the alphabet,
    as long as it has two or more symbols (over one symbol every message
    is the same).  One unit-capacity max-flow checks every O at once: a
    super source feeds each owner as many units as t wants from it, and
    the flow reaches every demand of t exactly when no O is cut short
    (max-flow min-cut).  Otherwise the nodes that can still reach t in the
    residual graph give the cut: owners outside them form O, S is t's
    demands they own, and the edges into them from outside are the cut,
    fewer than |S|."""
    if net._deficit is _UNSET:
        net._deficit = _first_deficit(net)
    return net._deficit


def _first_deficit(net: Network):
    cn = net.compiled()
    owner = [cn.index[o] for (_, o) in net.messages]
    for r, t, demand in cn.receivers:
        # a message the receiver owns itself needs no edge
        wanted = [m for m in dict.fromkeys(demand) if owner[m] != t]
        if len(wanted) < 2:
            continue    # validation found a path for a lone message
        spare = {}      # owner -> messages of r it has not sent yet
        for m in wanted:
            spare[owner[m]] = spare.get(owner[m], 0) + 1
        reached = _cut_side(t, spare, len(wanted), cn)
        if reached is not None:
            cut = [e for u in reached for e in cn.into[u]
                   if cn.tails[e] not in reached]
            short = {o for o in spare if o not in reached}
            return (r, tuple(sorted(net.nodes[o] for o in short)),
                    tuple(net.message_names[m] for m in wanted
                          if owner[m] in short),
                    tuple(sorted(cn.edges[e] for e in cut)))
    return None


def _cut_side(t: int, spare: dict, want: int, cn: Compiled):
    """Augment unit flow into t from owners with spare units until want
    units arrive: None then, else the nodes that can still reach t in the
    residual graph.  Paths grow backwards from t, so only its ancestors
    are visited; used marks the edges that carry flow."""
    tails, heads = cn.tails, cn.heads
    used = bytearray(len(tails))
    for _ in range(want):
        via = {t: -1}       # node -> edge of its residual arc towards t
        src = _residual_path(t, via, spare, used, cn)
        if src is None:
            return via
        spare[src] -= 1
        w = src
        while w != t:
            e = via[w]
            used[e] ^= 1
            w = heads[e] if used[e] else tails[e]
    return None


def _residual_path(t: int, via: dict, spare: dict, used, cn: Compiled):
    """Breadth-first search backwards from t over residual arcs w -> u (an
    unused edge w -> u, or a used edge u -> w to cancel), filling via; the
    first owner met with a spare unit, or None."""
    tails, heads, into, out_of = cn.tails, cn.heads, cn.into, cn.out_of
    queue = [t]
    for u in queue:
        for e in into[u]:
            w = tails[e]
            if not used[e] and w not in via:
                via[w] = e
                if spare.get(w):
                    return w
                queue.append(w)
        for e in out_of[u]:
            w = heads[e]
            if used[e] and w not in via:
                via[w] = e
                queue.append(w)
    return None


# ---------------------------------------------------------------------------
# stock networks

def m_network() -> Network:
    """Nine nodes; two sources (messages W, X and Y, Z), one mixing node, and
    four receivers each demanding one message from each source."""
    nodes = [str(i) for i in range(1, 10)]
    edges = [("1", "3"), ("1", "4"), ("2", "4"), ("2", "5")]
    edges += [("4", str(t)) for t in range(6, 10)]
    edges += [("3", str(t)) for t in range(6, 10)]
    edges += [("5", str(t)) for t in range(6, 10)]
    messages = [("W", "1"), ("X", "1"), ("Y", "2"), ("Z", "2")]
    demands = {"6": ("W", "Y"), "7": ("W", "Z"), "8": ("X", "Y"), "9": ("X", "Z")}
    return Network(nodes, edges, messages, demands)


def dim_n_network(n: int) -> Network:
    """The family whose n-th member forces dimension-n behaviour: n sources
    with n messages each, a shared bottleneck, and n^n receivers demanding
    one message per source according to their index tuple."""
    if not 1 <= n <= 4:
        raise ValueError("supported dimensions are 1..4")
    width = len(str(n ** n))
    sources = [f"a{i}" for i in range(1, n + 1)]
    relays = [f"b{i}" for i in range(1, n + 1)]
    tuples = list(product(range(1, n + 1), repeat=n))
    recv_of = {t: f"r{str(i + 1).zfill(width)}" for i, t in enumerate(tuples)}
    nodes = sources + relays + ["z"] + [recv_of[t] for t in tuples]
    edges = []
    for i in range(1, n + 1):
        for o in range(n - 1):
            edges.append((f"a{i}", f"b{i}", o))
        edges.append((f"a{i}", "z", 0))
    for t in tuples:
        r = recv_of[t]
        for i in range(1, n + 1):
            for o in range(n - 1):
                edges.append((f"b{i}", r, o))
        edges.append(("z", r, 0))
    messages = [(f"x{i}_{j}", f"a{i}") for i in range(1, n + 1)
                for j in range(1, n + 1)]
    demands = {recv_of[t]: tuple(f"x{k + 1}_{t[k]}" for k in range(n))
               for t in tuples}
    return Network(nodes, edges, messages, demands)


def choose_two_network(n: int) -> Network:
    """One source with two messages, n relay nodes fed directly by the
    source, and a receiver for every pair of relays demanding both."""
    if not 2 <= n <= 12:
        raise ValueError("supported relay counts are 2..12")
    width = len(str(n))
    relay = [f"v{str(i).zfill(width)}" for i in range(1, n + 1)]
    pairs = list(combinations(range(1, n + 1), 2))
    recv = {(i, j): f"t{str(i).zfill(width)}_{str(j).zfill(width)}"
            for (i, j) in pairs}
    nodes = ["s"] + relay + [recv[p] for p in pairs]
    edges = [("s", v) for v in relay]
    for (i, j) in pairs:
        edges.append((relay[i - 1], recv[(i, j)]))
        edges.append((relay[j - 1], recv[(i, j)]))
    messages = [("m1", "s"), ("m2", "s")]
    demands = {recv[p]: ("m1", "m2") for p in pairs}
    return Network(nodes, edges, messages, demands)


def trivial_network() -> Network:
    """A single source relaying one message to a single receiver."""
    return Network(["s", "t"], [("s", "t")], [("m", "s")], {"t": ("m",)})


# ---------------------------------------------------------------------------
# serialization

def network_to_json(net: Network):
    return {
        "nodes": list(net.nodes),
        "edges": [[e.tail, e.head, e.ordinal] for e in net.edges],
        "messages": [[m, owner] for (m, owner) in net.messages],
        "demands": {r: list(ms) for r, ms in sorted(net.demands.items())},
    }


def parse_network(data) -> Network:
    """The network a JSON object describes, not yet validated."""
    if not isinstance(data, dict):
        raise TypeError(f"a network is a JSON object, "
                        f"not {type(data).__name__}")
    return Network(
        [str(v) for v in data["nodes"]],
        [(str(t), str(h), int(o)) for (t, h, o) in data["edges"]],
        [(str(m), str(owner)) for (m, owner) in data["messages"]],
        {str(r): tuple(str(m) for m in ms) for r, ms in data["demands"].items()},
    )


def network_from_json(data) -> Network:
    """parse_network, then a ValueError naming every validate_network issue."""
    net = parse_network(data)
    issues = validate_network(net)
    if issues:
        raise ValueError("invalid network: " + "; ".join(issues))
    return net

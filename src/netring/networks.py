"""Directed acyclic message networks.

A network is a DAG with parallel edges (distinguished by an ordinal), source
messages owned by nodes, and per-receiver demands.  The inputs of a node are
its in-edges sorted by (tail id, ordinal) followed by the messages it owns in
declaration order; every coefficient list in a linear code is aligned with
that order, so it is fixed here once and used everywhere.  Generator node ids
zero-pad numeric suffixes so that the string sort agrees with numeric order.

A network is read in one pass, Network.__init__, whether it comes from
JSON (network_from_json) or from Python; nothing in it changes afterwards.

1. Names to ints, types checked in the same step.  A name (node, message,
   owner or receiver) is a string, and an integer is taken as its decimal
   text; an edge is [tail, head, ordinal] with an integer ordinal that is
   not a bool ([tail, head] is ordinal 0, and from Python an Edge will
   do); messages is a list of [name, owner] pairs and demands maps each
   receiver to a list of names.  Anything else is a one-line ValueError.
   Input in the plain form (names str, edges [tail, head, ordinal]) is
   checked a whole column at a time; other input is first put in that
   form entry by entry, or refused naming the entry.  A node's int is its
   place in nodes.  A repeated node name, or an edge end or an owner that
   is no node, stops the pass here.
2. The edges sorted by (tail, ordinal, head), dealt out per node: its
   in-edges in inputs() order and its out-edges in topo_edges() order.
3. The topological order: the ready node with the least name goes first,
   taken from a heap.  An edge's id is its place in topo_edges(), which
   lists the edges by the order of their tails, then ordinal, then head.
   An order that leaves a node out (a cycle) stops the pass at step 4.
4. Validation on the ints, once: screens over whole lists, with each
   owner's reach gathered as bit masks along the heap order, pass on a
   network with no issue and stop the pass on any other.  _issues, the
   one reader of repeated and unknown names, then walks it by name, and
   validate_network lists its issues in this order: a repeated node name;
   per edge, in declaration order, an unknown end node, a duplicate and a
   self-loop; a repeated message name; per message, an owner that is no
   node or has in-edges; per node, one that sends on edges with no
   inputs; a cycle among the listed nodes (an edge with an unknown end
   is no part of one); per receiver, one that is no node, then per demand
   an unknown message or, on an acyclic network, an owner with no path
   to the receiver.
5. The compiled form (Compiled) of a network with no issue: an input is
   an int, the id of the in-edge it is, or ~m for the m-th message of
   message_names.  Per node it lists its inputs in that order and the ids
   of its in- and out-edges; per receiver, its demands as message indices.

A network with an issue keeps what was given, message_names, receivers
and its issues; its orders, edge lists, inputs and compiled form raise a
ValueError, "network contains a cycle" if it has one, else "invalid
network: " and its issues.  A valid one makes both orders and the
compiled form once and serves in_edges, out_edges and inputs from it.
Edges and names stay at the boundary: an Edge is made once per edge, in
declaration order, codes are keyed by Edge, and results name nodes and
messages.  The searches, the witnesses, the verifiers and the cut bound
read the compiled form.

cut_deficit checks the cut-set bound, which no code over any alphabet of
two or more symbols can beat: a receiver decodes the messages owned in a
set of nodes O only if every cut between O and the receiver has at least
that many edges.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, product, repeat
from operator import itemgetter


_UNSET = object()


@dataclass(frozen=True, order=True)
class Edge:
    tail: str
    head: str
    ordinal: int = 0

    def __str__(self):
        tag = f"#{self.ordinal}" if self.ordinal else ""
        return f"{self.tail}->{self.head}{tag}"


def _show(x) -> str:
    """x as JSON text, shortened, for a one-line message."""
    try:
        text = json.dumps(x)
    except (TypeError, ValueError):
        text = repr(x)
    return text if len(text) <= 40 else text[:37] + "..."


def _name(x, where: str) -> str:
    """A name: a str, or an integer's decimal text; else a ValueError."""
    if isinstance(x, str):
        return str(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x)
    raise ValueError(f"{where} is a name (a string or an integer), "
                     f"not {_show(x)}")


def _list(x, where: str):
    if isinstance(x, (list, tuple)):
        return x
    raise ValueError(f"{where} is a list, not {_show(x)}")


def _columns(nodes, edges, messages, demands):
    """The columns of the plain form, where the fields are lists (or
    tuples) and demands a dict, every edge is [tail, head, ordinal], every
    message a pair, every name a str and every ordinal an int; None for
    anything else.  Each check covers whole columns at once."""
    if not (type(nodes) in _SEQS and type(edges) in _SEQS
            and type(messages) in _SEQS and type(demands) is dict
            and _SEQS.issuperset(map(type, chain(edges, messages,
                                                 demands.values())))):
        return None
    try:
        tails, heads, ords = (zip(*edges, strict=True) if edges
                              else ((), (), ()))
        mnames, owners = (zip(*messages, strict=True) if messages
                          else ((), ()))
    except ValueError:      # an edge of another length, or no pair
        return None
    if not (_INT.issuperset(map(type, ords)) and _STR.issuperset(
            map(type, chain(nodes, tails, heads, mnames, owners, demands,
                            chain.from_iterable(demands.values()))))):
        return None
    return (tuple(nodes), tails, heads, ords, mnames, owners,
            dict(zip(demands, map(tuple, demands.values()))))


def _canonical(nodes, edges, messages, demands) -> tuple:
    """The fields in the plain form of _columns: integer names as their
    decimal text, an Edge or a [tail, head] as [tail, head, ordinal]; or
    a one-line ValueError naming the first entry that is not allowed."""
    names = [_name(v, f"nodes[{k}]")
             for k, v in enumerate(_list(nodes, "nodes"))]
    triples = []
    for k, e in enumerate(_list(edges, "edges")):
        if isinstance(e, Edge):
            e = (e.tail, e.head, e.ordinal)
        if type(e) not in _SEQS or not 2 <= len(e) <= 3:
            raise ValueError(f"edges[{k}] is [tail, head, ordinal], "
                             f"not {_show(e)}")
        t, h, o = e if len(e) == 3 else (*e, 0)
        if type(o) is not int:
            raise ValueError(f"edges[{k}] has the ordinal {_show(o)}, "
                             f"not an integer")
        triples.append((_name(t, f"the tail of edges[{k}]"),
                        _name(h, f"the head of edges[{k}]"), o))
    pairs = []
    for k, pair in enumerate(_list(messages, "messages")):
        if type(pair) not in _SEQS or len(pair) != 2:
            raise ValueError(f"messages[{k}] is a [name, owner] pair, "
                             f"not {_show(pair)}")
        pairs.append((_name(pair[0], f"the name of messages[{k}]"),
                      _name(pair[1], f"the owner of messages[{k}]")))
    if not isinstance(demands, dict):
        raise ValueError("demands is an object mapping each receiver to "
                         f"a list of messages, not {_show(demands)}")
    wants = {}
    for r, ms in demands.items():
        r = _name(r, "a receiver in demands")
        where = f"the demands of {r}"
        wants[r] = [_name(m, where) for m in _list(ms, where)]
    return names, triples, pairs, wants


_STR, _INT, _SEQS = {str}, {int}, {list, tuple}


class Network:
    """A network, read, validated and compiled in one pass (module notes).

    nodes, edges, messages and demands hold what was given, with names as
    strings and edges as Edge; message_names and receivers (sorted) are
    derived once.  A network with an issue keeps only these and its
    issues, which validate_network lists; its orders, edge lists, inputs
    and compiled form raise a ValueError (module notes)."""

    def __init__(self, nodes, edges, messages, demands):
        # The pass, steps 1-5 of the module notes; a network with an issue
        # stops at the first step that finds one.

        # 1. names to ints, types checked: input not in the plain form that
        # _columns reads is put in it first, or refused, by _canonical
        names, tnames, hnames, ords, mnames, onames, wants = (
            _columns(nodes, edges, messages, demands)
            or _columns(*_canonical(nodes, edges, messages, demands)))
        objs = tuple(map(Edge, tnames, hnames, ords))
        self.nodes, self.edges, self.demands = names, objs, wants
        self.messages = tuple(zip(mnames, onames))
        self.message_names = mnames
        self.receivers = tuple(sorted(wants))
        n = len(names)
        index = dict(zip(names, range(n)))
        if len(index) < n or not index.keys() >= {*tnames, *hnames, *onames}:
            self._issues = _issues(self)
            return
        tails, heads, owners = (list(map(index.__getitem__, column))
                                for column in (tnames, hnames, onames))

        # 2. per edge (tail, ordinal, head, number, tail int, head int), the
        # number being its place in edges, sorted: each node's out-edges
        # come in topo_edges() order and its in-edges in inputs() order
        rows = sorted(zip(tnames, ords, hnames, range(len(objs)), tails,
                          heads))
        ahead = list(map(list, repeat((), n)))
        into = list(map(list, repeat((), n)))
        for r in rows:
            ahead[r[4]].append(r)
            into[r[5]].append(r[3])

        # 3. the topological order: the ready node with the least name goes
        # first, from a heap, and its out-edges follow in topo; reach[v]
        # gathers the bits 1 << o of the owners o with a path to v
        indeg = list(map(len, into))
        sources = [v for v, d in zip(names, indeg) if not d]
        reach = [0] * n
        for o in owners:
            reach[o] = 1 << o
        ready = sources[:]
        heapify(ready)
        order, topo = [], []
        while ready:
            name = heappop(ready)
            order.append(name)
            v = index[name]
            for r in ahead[v]:
                topo.append(r)
                h = r[5]
                reach[h] |= reach[v]
                indeg[h] -= 1
                if not indeg[h]:
                    heappush(ready, r[2])

        # 4. validation: screens that pass on a network with no issue, for
        # which reach is exact (a source's is 0 unless it owns a message).
        # Walking every network instead costs a rank request 3 % of its
        # median time (BENCH_24.json, "validation_screens").
        mpos = dict(zip(mnames, range(len(mnames))))
        clean = (len(order) == n and len(mpos) == len(mnames)
                 and len(set(zip(tails, heads, ords))) == len(rows)
                 and not any(map(into.__getitem__, owners))
                 and index.keys() >= wants.keys()
                 and all(reach[index[v]] or not ahead[index[v]]
                         for v in sources))
        if clean:
            for r, ms in wants.items():
                got = reach[index[r]]
                for m in ms:
                    k = mpos.get(m)
                    if k is None or not got >> owners[k] & 1:
                        clean = False
        if not clean:
            self._issues = _issues(self)
            return

        # 5. the compiled form; an edge's id is its place in topo
        ids = [0] * len(rows)
        for i, r in enumerate(topo):
            ids[r[3]] = i
        for x in into:
            x[:] = map(ids.__getitem__, x)
        out = list(map(list, repeat((), n)))
        for r in sorted(rows, key=_BY_HEAD):
            out[r[4]].append(ids[r[3]])
        inputs = list(map(tuple, into))
        for m, o in enumerate(owners):
            inputs[o] += (~m,)
        receivers = [(r, index[r], tuple(map(mpos.__getitem__, wants[r])))
                     for r in self.receivers]
        self._issues = ()
        self._topo_nodes = tuple(order)
        self._compiled = Compiled(
            tuple(map(objs.__getitem__, map(_NUM, topo))), ids, index,
            list(map(_TAIL, topo)), list(map(_HEAD, topo)), into, out,
            inputs, receivers)
        self._inputs = {}
        self._deficit = _UNSET
        # the rank search's compiled shapes (solver._Shape), one per
        # forwarding setting
        self._shapes = {}

    def __repr__(self):
        return (f"Network({len(self.nodes)} nodes, {len(self.edges)} edges, "
                f"{len(self.messages)} messages, {len(self.demands)} receivers)")

    def in_edges(self, node: str):
        cn = self.compiled()
        return tuple([cn.edges[i] for i in cn.into[cn.index[node]]])

    def out_edges(self, node: str):
        cn = self.compiled()
        return tuple([cn.edges[i] for i in cn.out_of[cn.index[node]]])

    def inputs(self, node: str):
        """The node's inputs: ("edge", Edge) then ("message", name)
        entries; compiled() holds them as ints (module notes)."""
        cn = self.compiled()
        out = self._inputs.get(node)
        if out is None:
            out = self._inputs[node] = tuple([
                ("edge", cn.edges[i]) if i >= 0
                else ("message", self.message_names[~i])
                for i in cn.inputs[cn.index[node]]])
        return out

    def topo_nodes(self):
        self.compiled()
        return self._topo_nodes

    def topo_edges(self):
        return self.compiled().edges

    def compiled(self) -> "Compiled":
        """The network as ints (module notes); on a network with an issue,
        a ValueError: "network contains a cycle" if it has one, else
        "invalid network: " and its issues."""
        if self._issues:
            raise ValueError(_CYCLE if _CYCLE in self._issues else
                             "invalid network: " + "; ".join(self._issues))
        return self._compiled


# of a row: (head, ordinal, number), number, tail int and head int
_BY_HEAD, _NUM = itemgetter(2, 1, 3), itemgetter(3)
_TAIL, _HEAD = itemgetter(4), itemgetter(5)
_CYCLE = "network contains a cycle"


@dataclass
class Compiled:
    """A network as ints (module notes).

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
    edges: tuple
    ids: list
    index: dict
    tails: list
    heads: list
    into: list
    out_of: list
    inputs: list
    receivers: list


def _issues(net: Network) -> list:
    """The issues of a network the pass stopped on, in the order of the
    module notes, walked by name.  The network is acyclic when every
    distinct name is placed by peeling off the nodes with no in-edges
    from listed nodes left, so a repeated name is only a duplicate and an
    edge from an unknown tail is only that."""
    nodes, known = net.nodes, set(net.nodes)
    issues = []
    if len(known) < len(nodes):
        issues.append("duplicate node ids")
    ahead, seen = {}, set()         # name -> the heads of its out-edges
    indeg = dict.fromkeys(nodes, 0)
    wait = dict.fromkeys(nodes, 0)  # in-edges from listed nodes, to peel
    for e in net.edges:
        if e.tail not in known or e.head not in known:
            issues.append(f"edge {e} touches an unknown node")
        else:
            wait[e.head] += 1
        if e in seen:
            issues.append(f"duplicate edge {e}")
        seen.add(e)
        if e.tail == e.head:
            issues.append(f"self-loop {e}")
        ahead.setdefault(e.tail, []).append(e.head)
        indeg[e.head] = indeg.get(e.head, 0) + 1
    if len(set(net.message_names)) != len(net.message_names):
        issues.append("duplicate message names")
    for m, owner in net.messages:
        if owner not in known:
            issues.append(f"message {m} owned by unknown node {owner}")
        elif indeg[owner]:
            issues.append(f"message {m} owned by non-source node {owner}")
    owning = {o for _, o in net.messages}
    for v in dict.fromkeys(nodes):
        if v in ahead and not indeg[v] and v not in owning:
            issues.append(f"node {v} sends on edges but has no inputs")
    ready = [v for v in known if not wait[v]]
    placed = 0
    while ready:
        v = ready.pop()
        placed += 1
        for h in ahead.get(v, ()):
            if h in known:
                wait[h] -= 1
                if not wait[h]:
                    ready.append(h)
    acyclic = placed == len(known)
    if not acyclic:
        issues.append(_CYCLE)
    owner_of, reached = dict(net.messages), {}
    for r, wanted in net.demands.items():
        if r not in known:
            issues.append(f"receiver {r} is not a node")
            continue
        for m in wanted:
            owner = owner_of.get(m)
            if owner is None:
                issues.append(f"receiver {r} demands unknown message {m}")
            elif acyclic:
                if owner not in reached:
                    reached[owner] = _downstream(owner, ahead)
                if r not in reached[owner]:
                    issues.append(
                        f"no path from {owner} to {r} for message {m}")
    return issues


def _downstream(v: str, ahead: dict) -> set:
    """v and every name an edge path from v reaches."""
    seen, stack = {v}, [v]
    while stack:
        for h in ahead.get(stack.pop(), ()):
            if h not in seen:
                seen.add(h)
                stack.append(h)
    return seen


def validate_network(net: Network) -> list[str]:
    """List of structural problems, found when the network was read; empty
    means the network is well-formed."""
    return list(net._issues)


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
    net.compiled()      # a ValueError on a network with an issue
    if net._deficit is _UNSET:
        net._deficit = _first_deficit(net)
    return net._deficit


def _first_deficit(net: Network):
    cn = net.compiled()
    owner = [cn.index[o] for (_, o) in net.messages]
    for r, t, demand in cn.receivers:
        if len(demand) < 2:
            continue    # validation found a path for a lone message
        # a message the receiver owns itself needs no edge
        wanted = [m for m in dict.fromkeys(demand) if owner[m] != t]
        if len(wanted) < 2:
            continue
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
    """The network a JSON object describes, its types checked (module
    notes), with the issues validate_network lists."""
    if not isinstance(data, dict):
        raise TypeError(f"a network is a JSON object, "
                        f"not {type(data).__name__}")
    return Network(data["nodes"], data["edges"], data["messages"],
                   data["demands"])


def network_from_json(data) -> Network:
    """parse_network, then a ValueError naming every validate_network issue."""
    net = parse_network(data)
    issues = validate_network(net)
    if issues:
        raise ValueError("invalid network: " + "; ".join(issues))
    return net

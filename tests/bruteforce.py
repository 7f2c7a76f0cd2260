"""Ground truth by sheer enumeration.

Everything here recomputes results from first principles — direct
recursive evaluation of edge values, full sweeps over coefficient
assignments, decode rows, and message assignments — without touching the
library's transfer-vector propagation or either solver strategy.  Only
ever pointed at tiny instances.
"""
from itertools import combinations, product

import numpy as np


def wiring(net):
    """(edge, inputs of its tail) pairs in topological order."""
    return [(e, net.inputs(e.tail)) for e in net.topo_edges()]


def edge_values(net, ring, coeffs, assignment, wires=None):
    """Evaluate every edge for one message assignment.

    coeffs maps each edge to a tuple of ring indices, one per input of the
    edge's tail (in net.inputs order).  assignment maps message name ->
    ring index.  wires, the network's wiring(), may be passed in by callers
    that evaluate one network many times.
    """
    value = {}
    for e, ins in wires or wiring(net):
        acc = 0
        for c, (kind, ref) in zip(coeffs[e], ins):
            v = assignment[ref] if kind == "message" else value[ref]
            acc = ring.add(acc, ring.mul(c, v))
        value[e] = acc
    return value


def all_assignments(net, ring):
    msgs = net.message_names
    return [dict(zip(msgs, combo))
            for combo in product(range(ring.size), repeat=len(msgs))]


def _input_tables(net, ring, coeffs, receiver, assignments):
    """For each assignment, the receiver's input values in order."""
    ins = net.inputs(receiver)
    wires = wiring(net)
    tables = []
    for a in assignments:
        vals = edge_values(net, ring, coeffs, a, wires)
        tables.append(tuple(a[ref] if kind == "message" else vals[ref]
                            for kind, ref in ins))
    return tables


def find_decode(net, ring, coeffs, receiver, message, assignments=None):
    """Lex-least decode row recovering the message at the receiver under
    every assignment, or None."""
    if assignments is None:
        assignments = all_assignments(net, ring)
    tables = _input_tables(net, ring, coeffs, receiver, assignments)
    width = len(net.inputs(receiver))
    for row in product(range(ring.size), repeat=width):
        for a, table in zip(assignments, tables):
            acc = 0
            for d, v in zip(row, table):
                acc = ring.add(acc, ring.mul(d, v))
            if acc != a[message]:
                break
        else:
            return row
    return None


def decodable(net, ring, coeffs, assignments):
    """Every receiver can decode every demanded message?"""
    for r in net.receivers:
        for m in net.demands[r]:
            if find_decode(net, ring, coeffs, r, m, assignments) is None:
                return False
    return True


def solve(net, ring, limit=None):
    """(status, coeffs, decodings) by full lexicographic enumeration.

    Coefficient slots are ordered edge-by-edge along topo_edges, inputs in
    net.inputs order — ascending tuples, so the first hit is the overall
    lexicographically least solution.  limit bounds the number of
    coefficient assignments tried (None = all of them).
    """
    edges = net.topo_edges()
    arity = [len(net.inputs(e.tail)) for e in edges]
    assignments = all_assignments(net, ring)
    tried = 0
    for flat in product(range(ring.size), repeat=sum(arity)):
        if limit is not None and tried >= limit:
            return "budget-exceeded", None, None
        tried += 1
        coeffs, at = {}, 0
        for e, a in zip(edges, arity):
            coeffs[e] = flat[at:at + a]
            at += a
        if decodable(net, ring, coeffs, assignments):
            decs = {(r, m): find_decode(net, ring, coeffs, r, m, assignments)
                    for r in net.receivers for m in net.demands[r]}
            return "solved", coeffs, decs
    return "exhausted-unsolvable", None, None


def check_code(net, code):
    """Semantic pass over a LinearCode: decode outputs equal demanded
    messages under every assignment, computed by direct recursion.

    All assignments are evaluated at once as numpy arrays.  The action and
    addition are tabulated here from per-pair module.act and group.add
    calls, the action only for the coefficients the code uses."""
    module, group = code.module, code.module.group
    size = group.size
    msgs = net.message_names
    used = {c for row in code.edge_coeffs.values() for c in row}
    used |= {d for row in code.decodings.values() for d in row}
    act = {c: np.array([module.act(c, g) for g in range(size)])
           for c in used}
    add = np.array([[group.add(a, b) for b in range(size)]
                    for a in range(size)])
    count = size ** len(msgs)
    states = np.arange(count)
    assignment = {m: states // size ** (len(msgs) - 1 - i) % size
                  for i, m in enumerate(msgs)}
    value = {}

    def combine(coeffs, inputs):
        acc = np.zeros(count, dtype=np.int64)
        for c, (kind, ref) in zip(coeffs, inputs):
            v = assignment[ref] if kind == "message" else value[ref]
            acc = add[acc, act[c][v]]
        return acc

    for e in net.topo_edges():
        value[e] = combine(code.edge_coeffs[e], net.inputs(e.tail))
    return all(np.array_equal(combine(code.decodings[(r, m)],
                                      net.inputs(r)), assignment[m])
               for r in net.receivers for m in net.demands[r])


def separates(net, owners, cut, receiver):
    """Whether no directed path leads from any owner to the receiver once
    the cut edges are removed."""
    gone = set(cut)
    seen, stack = set(owners), list(owners)
    while stack:
        v = stack.pop()
        for e in net.edges:
            if e.tail == v and e not in gone and e.head not in seen:
                seen.add(e.head)
                stack.append(e.head)
    return receiver not in seen


def owned_demands(net, receiver, owners):
    """The distinct messages the receiver demands that the owners own."""
    owner = dict(net.messages)
    return {m for m in net.demands[receiver] if owner[m] in owners}


def cut_set_violated(net):
    """Whether some receiver, set of owners of its demands and set of
    fewer edges than its demands owned there cut the owners off from it,
    by trying every such edge set."""
    owner = dict(net.messages)
    for r in net.receivers:
        owners = sorted({owner[m] for m in net.demands[r]} - {r})
        for n in range(1, len(owners) + 1):
            for group in combinations(owners, n):
                most = len(owned_demands(net, r, group))
                for size in range(most):
                    if any(separates(net, group, cut, r)
                           for cut in combinations(net.edges, size)):
                        return True
    return False


def distribution_entropy(counts, base):
    """Shannon entropy (base `base`) of an empirical distribution, exact
    when it is uniform on its support and the support size is a power of
    the base — which is the case for linear images of uniform messages."""
    import math
    total = sum(counts.values())
    h = 0.0
    for c in counts.values():
        p = c / total
        h -= p * math.log(p, base)
    return h

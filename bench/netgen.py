"""Seeded generator of small valid coding networks, as network JSON.

Every network is a DAG laid out in three tiers: sources owning one or two
messages each, relays fed by earlier nodes (parallel edges allowed), and
receivers with in-degree 2 or 3 and no out-edges.  Each receiver demands a
random non-empty set of the messages that can reach it.  The output uses the
shape of ``netring.network_to_json`` so a request carries plain JSON, and the
same ``random.Random`` state always yields the same networks.

``relabel`` renames a network's nodes and messages, and the cost helpers
size a network for the exhaustive engine from its structure alone, so a
workload can keep every request bounded without asking the program under
test.
"""
from __future__ import annotations

import random


def random_network(rng: random.Random, *, sources: tuple[int, int] = (1, 3),
                   relays: tuple[int, int] = (0, 3),
                   receivers: tuple[int, int] = (1, 3),
                   indegree: tuple[int, ...] = (2, 3),
                   messages_per_source: tuple[int, int] = (1, 2)) -> dict:
    """One random network; every range is inclusive."""
    srcs = [f"s{i}" for i in range(1, rng.randint(*sources) + 1)]
    rels = [f"u{i}" for i in range(1, rng.randint(*relays) + 1)]
    recs = [f"t{i}" for i in range(1, rng.randint(*receivers) + 1)]
    messages = []
    for s in srcs:
        for _ in range(rng.randint(*messages_per_source)):
            messages.append([f"m{len(messages) + 1}", s])

    edges: list[list] = []
    ordinal: dict[tuple[str, str], int] = {}

    def connect(tail: str, head: str) -> None:
        o = ordinal.get((tail, head), 0)
        ordinal[(tail, head)] = o + 1
        edges.append([tail, head, o])

    for i, r in enumerate(rels):
        earlier = srcs + rels[:i]
        for _ in range(rng.randint(1, 2)):
            connect(rng.choice(earlier), r)
    feeders = srcs + rels
    for t in recs:
        for _ in range(rng.choice(indegree)):
            connect(rng.choice(feeders), t)

    owned = {s: [m for m, owner in messages if owner == s] for s in srcs}
    reach = {s: set(owned[s]) for s in srcs}
    for r in rels + recs:
        reach[r] = set()
    for tail, head, _ in edges:           # edges were added in tier order
        reach[head] |= reach[tail]
    demands = {}
    for t in recs:
        avail = sorted(reach[t], key=_msg_key)
        k = rng.randint(1, len(avail))
        demands[t] = sorted(rng.sample(avail, k), key=_msg_key)
    return {"nodes": srcs + rels + recs, "edges": edges,
            "messages": messages, "demands": demands}


def cut_deficient_network(rng: random.Random, k: int, chain: int) -> dict:
    """One source with k messages reaching a receiver that demands all of
    them through a single-edge chain of ``chain`` relays, plus up to two
    decoy receivers that each get one message over one edge.  The value
    space at the starved receiver is smaller than the demanded message
    space over every finite ring, so no ring solves the network; the single
    bottleneck keeps every direct search small."""
    msgs = [f"m{i}" for i in range(1, k + 1)]
    relays = [f"v{i}" for i in range(1, chain + 1)]
    decoys = [f"d{i}" for i in range(1, rng.randint(0, 2) + 1)]
    hops = ["s"] + relays + ["t"]
    edges = [[a, b, 0] for a, b in zip(hops, hops[1:])]
    edges += [[rng.choice(hops[:-1]), d, 0] for d in decoys]
    demands = {"t": msgs}
    demands.update({d: [rng.choice(msgs)] for d in decoys})
    return {"nodes": hops + decoys, "edges": edges,
            "messages": [[m, "s"] for m in msgs], "demands": demands}


def relabel(net: dict, rng: random.Random) -> dict:
    """The same network under fresh random node and message names.  Node
    names fix the order of every node's inputs, so the coefficient layout
    and search order change while the verdict cannot."""
    nodes = list(net["nodes"])
    numbers = rng.sample(range(10, 10 + len(nodes)), len(nodes))
    names = [f"n{i}" for i in numbers]
    node = dict(zip(nodes, names))
    msgs = [m for m, _ in net["messages"]]
    msg = dict(zip(msgs, [f"m{i}" for i in rng.sample(range(1, len(msgs) + 1),
                                                      len(msgs))]))
    return {"nodes": [node[v] for v in net["nodes"]],
            "edges": [[node[t], node[h], o] for t, h, o in net["edges"]],
            "messages": [[msg[m], node[owner]]
                         for m, owner in net["messages"]],
            "demands": {node[r]: sorted((msg[m] for m in ms), key=_msg_key)
                        for r, ms in net["demands"].items()}}


def _msg_key(name: str) -> int:
    return int(name[1:])


def input_counts(net: dict) -> dict[str, int]:
    """Inputs of each node: in-edges plus owned messages."""
    counts = {v: 0 for v in net["nodes"]}
    for _, head, _ in net["edges"]:
        counts[head] += 1
    for _, owner in net["messages"]:
        counts[owner] += 1
    return counts


def coefficient_slots(net: dict, *, normalized: bool) -> int:
    """Coefficients a code chooses on edges.  With normalization, edges out
    of single-input nodes are plain forwarding and carry none."""
    counts = input_counts(net)
    return sum(counts[tail] for tail, _, _ in net["edges"]
               if not normalized or counts[tail] > 1)


def exhaustive_space(net: dict, ring_size: int, *, normalized: bool) -> int:
    """Upper bound on the coefficient assignments an exhaustive search
    enumerates, receiver-local edges included."""
    return ring_size ** coefficient_slots(net, normalized=normalized)


def decode_space(net: dict, ring_size: int) -> int:
    """Largest decode-row enumeration over one receiver."""
    counts = input_counts(net)
    return max(ring_size ** counts[t] for t in net["demands"])

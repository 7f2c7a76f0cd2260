"""Every search route against full enumeration, on generated networks.

The strategy draws small valid DAGs: one to three sources (the first may
own two messages), up to two relays, one or two receivers, parallel edges
anywhere, receiver in-degree at most three and random demands among the
messages that reach each receiver.  Coefficient slots are capped so that
tests/bruteforce.py can enumerate every code over GF(3); over the rings
that are not fields, the oracle's codes times message assignments are
capped instead, which keeps it to at most 4^6 codes.

Forwarding normalization pins every bundle of parallel edges that has at
least as many edges as its tail has inputs; the drawn networks reach that
with two or more inputs only now and then (an event counts them), so
explicit examples add a wide relay, a bundle wider than its tail's
inputs and a bundle out of a node that merges two sources.

Drawn networks are mostly solvable in many ways, so a search that skipped
most of its space would still find a code.  The explicit examples of the
reduction test have few solutions: a decoy receiver behind a relay demands
one of the two messages the relay's edge carries, which forces that edge's
coefficient on the other message to 0.

The rank search keeps one candidate per message-symmetry orbit, which is
trivial over GF(2) with one message per edge.  A test draws networks whose
first source owns two messages and checks the rank search against
exhaustive enumeration over GF(4), GF(5) and M_2(GF(2)), with slots capped
so that the enumeration fits one block.

The rank search walks interchangeable positions (twins) in
non-decreasing order.  A test adds a parallel copy of one edge, out of a
node with two or more inputs where there is one, to each drawn network and
checks the rank search against enumeration, and its witness against the
search that walks every order.

The rank search also adds to a claimed position's orbit group the swaps
of two of its messages that the network cannot tell apart.  Drawn
networks have few, so a test mirrors one source message (a second message
at the same owner, and next to each receiver that demands the first a
copy of it that demands the second) and checks the rank search against
enumeration, and its witness against the search without swaps.

The exhaustive search keeps, when it spans more than one chunk, one
verdict per value of the slots a receiver reads.  A test shrinks the chunk
to four assignments, so that every drawn network with three or more
slots spans many, over the fields and the rings that are not, and
checks the status and witness against the one-chunk search and the
verdict against enumeration; another checks each receiver's read set
against the slots whose change moves one of its input rows.

The default smallest-ring sweep looks only at simple rings; a test
checks it against a sweep of the whole structured catalogue, which
decides every other ring by its quotients.

The cut-set bound must fire exactly when some set of fewer edges than a
receiver's demands from some owners cuts those owners off, as a search over
every such edge set finds; whenever it fires, enumeration over GF(2) and
GF(3) must find no code either.
"""
from collections import Counter
from unittest import mock

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import bruteforce
from conftest import (chain2_network, cut_chain_network, funnel_network,
                      two_owner_network)
from netring import codes, solver
from netring.networks import (Network, choose_two_network, cut_deficit,
                              dim_n_network, m_network, validate_network)
from netring.rings import (GaloisField, IntegersMod, MatrixRing, PrimeField,
                           Product, UpperTriangular, construct_ring, describe)
from netring.solver import (CHUNK, SearchOptions, smallest_ring_search,
                            solve_scalar, structured_catalog)
from test_solver import assert_read_sets_are_exact

MAX_SLOTS = 6      # 3**6 or 4**6 coefficient assignments for the oracle
RINGS = [construct_ring(PrimeField(2)), construct_ring(PrimeField(3))]
# a local ring, a product of fields and a non-commutative ring, each with
# GF(2) quotients, so the reduction route has something to reduce
REDUCIBLE = [construct_ring(IntegersMod(4)),
             construct_ring(Product((PrimeField(2), PrimeField(2)))),
             construct_ring(UpperTriangular(PrimeField(2), 2))]
ORACLE_WORK = 4 ** 8   # codes times message assignments, per ring
# rings whose rank search prunes by message symmetry, each with the most
# coefficient slots that one exhaustive enumeration block holds
SYMMETRIC = [(construct_ring(GaloisField(2, 2)), 6),
             (construct_ring(PrimeField(5)), 5),
             (construct_ring(MatrixRing(PrimeField(2), 2)), 3)]


def _slots(net):
    return sum(len(net.inputs(e.tail)) for e in net.edges)


def _capacity_forwarded(net):
    """Whether some bundle of parallel edges forwards a node with two or
    more inputs: it has at least as many edges as the node has inputs."""
    width = Counter((e.tail, e.head) for e in net.edges)
    return any(2 <= len(net.inputs(tail)) <= c
               for (tail, _), c in width.items())


@st.composite
def networks(draw, shared_source=False):
    """With shared_source, the first source always owns two messages."""
    n_src = draw(st.integers(1, 3))
    n_relay = draw(st.integers(0, 2))
    n_recv = draw(st.integers(1, 2))
    sources = [f"s{i}" for i in range(n_src)]
    relays = [f"u{i}" for i in range(n_relay)]
    receivers = [f"t{i}" for i in range(n_recv)]
    messages = [(f"m{i}", s) for i, s in enumerate(sources)]
    if shared_source or draw(st.booleans()):
        messages.append((f"m{n_src}", sources[0]))

    edges = []

    def feed(head, earlier, most):
        count = {}
        for tail in draw(st.lists(st.sampled_from(earlier), min_size=1,
                                  max_size=most)):
            count[tail] = count.get(tail, 0) + 1
            edges.append((tail, head, count[tail] - 1))

    for i, u in enumerate(relays):
        feed(u, sources + relays[:i], 2)
    for t in receivers:
        feed(t, sources + relays, 3)

    owner = dict(messages)
    reach = {v: {v} for v in sources + relays + receivers}
    for tail, head, _ in edges:     # edges are listed in topological order
        reach[head] |= reach[tail]
    demands = {}
    for t in receivers:
        seen = sorted(m for m, s in owner.items() if s in reach[t])
        if seen and draw(st.booleans()):
            demands[t] = tuple(seen)     # everything that reaches t
        elif seen:
            demands[t] = tuple(draw(st.lists(st.sampled_from(seen),
                                             min_size=1, unique=True)))
    net = Network(sources + relays + receivers, edges, messages, demands)
    assert not validate_network(net)
    return net


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(networks().filter(lambda net: net.demands
                         and _slots(net) <= MAX_SLOTS))
@example(chain2_network())
@example(Network(["s", "t"], [("s", "t", 0), ("s", "t", 1), ("s", "t", 2)],
                 [("m0", "s"), ("m1", "s")], {"t": ("m0", "m1")}))
@example(Network(["s0", "s1", "u", "t"],
                 [("s0", "u", 0), ("s1", "u", 0), ("u", "t", 0),
                  ("u", "t", 1)],
                 [("m0", "s0"), ("m1", "s1")], {"t": ("m0", "m1")}))
def test_every_route_agrees_with_enumeration(net):
    event(f"capacity forwarding: {_capacity_forwarded(net)}")
    for ring in RINGS:
        want, _, _ = bruteforce.solve(net, ring)
        event(f"GF({ring.size}) {want}")
        for strategy in ("rank", "exhaustive"):
            for normalize in (True, False):
                opts = SearchOptions(strategy=strategy,
                                     normalize_forwarding=normalize)
                res = solve_scalar(net, ring, opts)
                where = (ring.size, strategy, normalize)
                assert res.status == want, where
                if res.solved:
                    assert bruteforce.check_code(net, res.code), where
                else:
                    assert res.code is None, where


@st.composite
def bundled_networks(draw):
    """A drawn network whose first source owns two messages, with one more
    copy of one edge, out of a node with two or more inputs if any."""
    net = draw(networks(shared_source=True))
    busy = [e for e in net.edges if len(net.inputs(e.tail)) > 1]
    e = draw(st.sampled_from(busy or list(net.edges)))
    ordinal = 1 + max(f.ordinal for f in net.edges
                      if (f.tail, f.head) == (e.tail, e.head))
    edges = list(net.edges) + [(e.tail, e.head, ordinal)]
    return Network(net.nodes, edges, net.messages, net.demands)


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(bundled_networks().filter(lambda net: net.demands
                                 and _slots(net) <= MAX_SLOTS))
def test_rank_with_twins_agrees_with_enumeration(net):
    for ring in RINGS:
        want, _, _ = bruteforce.solve(net, ring)
        res = solve_scalar(net, ring, SearchOptions(strategy="rank"))
        event(f"GF({ring.size}) {want}, twins: {res.stats['twins'] > 0}")
        assert res.status == want, ring.size
        # a fresh copy: the searched network keeps its compiled shape, twin
        # map included
        copy = Network(net.nodes, net.edges, net.messages, net.demands)
        with mock.patch.object(solver, "_twins", lambda *args: {}):
            full = solve_scalar(copy, ring, SearchOptions(strategy="rank"))
        assert full.stats["twins"] == 0
        assert full.status == want and \
            res.stats["nodes"] <= full.stats["nodes"]
        if res.solved:
            assert bruteforce.check_code(net, res.code)
            assert codes.code_to_json(res.code) == \
                codes.code_to_json(full.code)


@st.composite
def mirrored_networks(draw):
    """A drawn network with one source message mirrored: a second message
    at the same owner and, next to each receiver that demands the first,
    a copy of that receiver (the same in-edges) that demands the second
    in its place.  Swapping the two messages then maps the receivers'
    demands onto each other."""
    net = draw(networks())
    m = draw(st.sampled_from(net.message_names))
    mirror = f"m{len(net.messages)}"
    nodes, edges, demands = list(net.nodes), list(net.edges), {}
    for t, wanted in net.demands.items():
        demands[t] = wanted
        if m in wanted:
            copy = f"{t}'"
            nodes.append(copy)
            edges += [(e.tail, copy, e.ordinal) for e in net.edges
                      if e.head == t]
            demands[copy] = tuple(mirror if x == m else x for x in wanted)
    messages = list(net.messages) + [(mirror, dict(net.messages)[m])]
    return Network(nodes, edges, messages, demands)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(mirrored_networks().filter(lambda net: net.demands
                                  and _slots(net) <= MAX_SLOTS))
@example(Network(["s", "u", "t0", "t0'"],
                 [("s", "u"), ("u", "t0"), ("u", "t0'")],
                 [("m0", "s"), ("m1", "s")], {"t0": ("m0",), "t0'": ("m1",)}))
@example(Network(["s", "u1", "u2", "t0", "t0'"],
                 [("s", "u1"), ("s", "u2"), ("u1", "t0"), ("u2", "t0"),
                  ("u1", "t0'"), ("u2", "t0'")],
                 [("m0", "s"), ("m1", "s")],
                 {"t0": ("m0", "m1"), "t0'": ("m1", "m0")}))
def test_rank_with_swaps_agrees_with_enumeration(net):
    assert not validate_network(net)
    for ring in RINGS:
        want, _, _ = bruteforce.solve(net, ring)
        res = solve_scalar(net, ring, SearchOptions(strategy="rank"))
        event(f"GF({ring.size}) {want}, swaps: {res.stats['swaps'] > 0}")
        assert res.status == want, ring.size
        # a fresh copy: the searched network keeps its compiled shape
        copy = Network(net.nodes, net.edges, net.messages, net.demands)
        with mock.patch.object(solver, "_swaps", lambda *args: {}):
            full = solve_scalar(copy, ring, SearchOptions(strategy="rank"))
        assert full.stats["swaps"] == 0
        assert full.status == want and \
            res.stats["nodes"] <= full.stats["nodes"]
        if res.solved:
            assert bruteforce.check_code(net, res.code)
            assert codes.code_to_json(res.code) == \
                codes.code_to_json(full.code)


def _decoy_network(wanted: str, full_receiver: bool) -> Network:
    """s owns m0 and m1 and feeds the relay u; t0 behind u demands only
    `wanted`.  With full_receiver, t1 sees u and s and demands both."""
    nodes = ["s", "u", "t0"]
    edges = [("s", "u", 0), ("u", "t0", 0)]
    demands = {"t0": (wanted,)}
    if full_receiver:
        nodes.append("t1")
        edges += [("u", "t1", 0), ("s", "t1", 0)]
        demands["t1"] = ("m0", "m1")
    return Network(nodes, edges, [("m0", "s"), ("m1", "s")], demands)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(networks().filter(lambda net: net.demands
                         and _slots(net) <= MAX_SLOTS))
@example(_decoy_network("m1", False))
@example(_decoy_network("m0", False))
@example(_decoy_network("m1", True))
def test_reduction_agrees_with_enumeration_over_rings(net):
    for ring in REDUCIBLE:
        if ring.size ** (_slots(net) + len(net.message_names)) > ORACLE_WORK:
            continue
        name = describe(ring.descriptor)
        want, _, _ = bruteforce.solve(net, ring)
        runs = {"auto": solve_scalar(net, ring)}
        for normalize in (True, False):
            runs[f"exhaustive/{normalize}"] = solve_scalar(
                net, ring, SearchOptions(strategy="exhaustive",
                                         normalize_forwarding=normalize))
        # a one-ring sweep always reduces, however small the search
        verdict = smallest_ring_search(net, catalog=[ring.descriptor]
                                       ).verdicts[0]
        runs["reduction"] = verdict
        event(f"{name} {want} by {verdict.method}")
        for where, res in runs.items():
            assert res.status == want, (name, where)
            if res.status == "solved":
                assert bruteforce.check_code(net, res.code), (name, where)
            else:
                assert res.code is None, (name, where)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(networks(shared_source=True).filter(
    lambda net: net.demands and _slots(net) <= 6))
@example(_decoy_network("m1", False))
@example(_decoy_network("m0", False))
@example(_decoy_network("m1", True))
@example(_decoy_network("m0", True))
def test_rank_agrees_with_exhaustive_under_symmetry(net):
    # an edge out of the first source carries two messages, whose symmetry
    # has orbits of more than one candidate over each of these rings
    for ring, most in SYMMETRIC:
        if _slots(net) > most:
            continue
        assert ring.size ** _slots(net) <= CHUNK
        name = describe(ring.descriptor)
        runs = {}
        for strategy in ("rank", "exhaustive"):
            for normalize in (True, False):
                runs[strategy, normalize] = solve_scalar(
                    net, ring, SearchOptions(strategy=strategy,
                                             normalize_forwarding=normalize))
        want = runs["exhaustive", False].status
        skips = sum(res.stats["orbit_skips"] for key, res in runs.items()
                    if key[0] == "rank")
        event(f"{name} {want}, orbit skips: {skips > 0}")
        for where, res in runs.items():
            assert res.status == want, (name, where)
            if res.solved:
                assert bruteforce.check_code(net, res.code), (name, where)
            else:
                assert res.code is None, (name, where)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(networks().filter(lambda net: net.demands
                         and 3 <= _slots(net) <= MAX_SLOTS))
@example(_decoy_network("m1", True))
@example(Network(["s", "u", "t0", "t1"],
                 [("s", "u"), ("s", "t0"), ("u", "t0"), ("u", "t1")],
                 [("m0", "s"), ("m1", "s")],
                 {"t0": ("m0", "m1"), "t1": ("m1",)}))
def test_verdicts_across_chunks_agree_with_one_chunk(net):
    for ring in RINGS + REDUCIBLE:
        # the oracle only where it stays small
        want = (bruteforce.solve(net, ring)[0] if ring.size ** (
            _slots(net) + len(net.message_names)) <= ORACLE_WORK // 4
            else None)
        event(f"{describe(ring.descriptor)} oracle: {want is not None}")
        for normalize in (True, False):
            opts = SearchOptions(strategy="exhaustive",
                                 normalize_forwarding=normalize)
            whole = solve_scalar(net, ring, opts)
            with mock.patch.object(solver, "CHUNK", 4):
                chunked = solve_scalar(net, ring, opts)
            plan, nslots = solver._table_slots(net, ring.size, opts)
            kept = sum(ring.size ** len(slots) < ring.size ** nslots
                       for slots, _ in solver._read_sets(plan).values())
            event(f"receivers with verdicts: {kept > 0}")
            where = (describe(ring.descriptor), normalize)
            assert chunked.status == whole.status, where
            assert want in (None, whole.status), where
            assert (chunked.code and codes.code_to_json(chunked.code)) == \
                (whole.code and codes.code_to_json(whole.code)), where
            # a solved search stops with the chunk that holds its witness
            assert chunked.stats["assignments"] <= \
                whole.stats["assignments"], where
            assert chunked.solved or chunked.stats["assignments"] == \
                whole.stats["assignments"], where


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(networks().filter(lambda net: net.demands
                         and _slots(net) <= MAX_SLOTS))
def test_read_sets_are_the_slots_that_move_a_receivers_rows(net):
    for normalize in (True, False):
        assert_read_sets_are_exact(net, RINGS[0], normalize)


@settings(max_examples=30, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(networks().filter(lambda net: net.demands))
@example(m_network())
@example(choose_two_network(3))
@example(choose_two_network(4))
@example(choose_two_network(5))
@example(choose_two_network(6))
@example(dim_n_network(2))
def test_simple_ring_sweep_agrees_with_the_catalogue(net):
    simple = smallest_ring_search(net, 16)
    listed = smallest_ring_search(net, catalog=structured_catalog(16))
    event(f"minimal size {simple.minimal_size}")
    assert simple.minimal_size == listed.minimal_size
    assert ([v.descriptor for v in simple.winners]
            == [v.descriptor for v in listed.winners])


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(networks().filter(lambda net: net.demands
                         and _slots(net) <= MAX_SLOTS))
@example(cut_chain_network(3, 1, 1))
@example(funnel_network())
@example(two_owner_network())
def test_cut_bound_fires_exactly_on_a_narrow_cut(net):
    cut = cut_deficit(net)
    event(f"bound fires: {cut is not None}")
    assert (cut is not None) == bruteforce.cut_set_violated(net)
    if cut is None:
        return
    r, owners, msgs, edges = cut
    assert bruteforce.separates(net, owners, edges, r)
    assert set(msgs) == bruteforce.owned_demands(net, r, owners)
    assert len(edges) < len(msgs)
    for ring in RINGS:
        assert bruteforce.solve(net, ring)[0] == "exhausted-unsolvable"

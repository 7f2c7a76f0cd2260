"""The rank witness against the reference construction it replaced.

solver._rank_witness turns the subspace assignment the rank search found
into coefficients: one elimination per node, on coordinate rows over
every field, unit targets read off the transform, free edges lifted
against one growing echelon basis.  reference_witness below is the
construction it replaced, kept the way tests/bruteforce.py is kept for the
searches: it re-eliminates every node's input rows with rref
(tests/test_fieldlinalg.py), solves each target with solve_row and tests
each demanded unit row with a fresh elimination.

Both must give byte-identical codes.  rref takes the rows in order and
drops the dependent ones, so each combination is the unique one over the
independent rows in stack order, with zero on the dependent rows; any
correct elimination that keeps that rule gives the same coefficients.  The
tests run every search with both constructions on the same assignment and
compare code_to_json as JSON text, on drawn networks with forwarding
normalization on and off (off leaves more receivers with one free edge to
lift), over GF(2), GF(3), GF(4), GF(5), M_2(GF(2)) and M_2(GF(3)), and on
vector choose-two codes of dimension 2 and 3.
"""
import json
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, given, settings

from netring import codes, solver
from netring import fieldlinalg as fl
from netring import modules as _modules
from netring.networks import (Network, choose_two_network, dim_n_network,
                              m_network)
from netring.rings import GaloisField, MatrixRing, PrimeField, construct_ring
from netring.solver import SearchOptions, solve_scalar
from test_fieldlinalg import rref
from test_generated import networks

RINGS = [construct_ring(d) for d in (
    PrimeField(2), PrimeField(3), GaloisField(2, 2), PrimeField(5),
    MatrixRing(PrimeField(2), 2), MatrixRing(PrimeField(3), 2))]
BUDGET = 3000      # nodes a drawn search may take; a stopped one has no code


def solve_row(ops, rows, target, reduced=None):
    """Coefficients expressing target as a combination of rows, or None.
    reduced is rref(ops, rows) when the caller has it, so that several
    targets over one stack share one elimination."""
    basis, transform, pivots = reduced or rref(ops, rows)
    combo = tuple(0 for _ in rows)
    for b, t, p in zip(basis, transform, pivots):
        c = target[p]
        if c:
            target = fl.row_sub_scaled(ops, target, b, c)
            mc = ops.mul[c]
            combo = tuple(ops.add[x][mc[y]] for x, y in zip(combo, t))
    if any(target):
        return None
    return combo


def reference_witness(net, ring, k, ops, alg, normalized, local_one, assign,
                      unit_spaces, mpos):
    """The witness construction before the rank engine compiled one: rows as
    coordinate tuples keyed by edge, rref per node and per free edge,
    solve_row per target.  normalized maps each forwarding edge to the
    input it forwards and local_one each receiver to its free edge, both
    as Network.inputs and Edge give them."""
    width = alg.width
    zero = tuple(0 for _ in range(width))
    packed = isinstance(alg, solver._Gf2Alg)

    def to_coords(row):
        # a packed GF(2) row: bit j is column j
        return tuple(row >> j & 1 for j in range(width)) if packed else row

    def unit_coord(j):
        return tuple(1 if i == j else 0 for i in range(width))

    def pad(rows):
        rows = [tuple(r) for r in rows]
        return rows + [zero] * (k - len(rows))

    rows_map = {}

    def input_rows(inp):
        kind, val = inp
        if kind == "message":
            return [unit_coord(mpos[val] * k + a) for a in range(k)]
        return rows_map[val]

    for e in net.topo_edges():
        fwd = normalized.get(e)
        if fwd is not None:
            rows_map[e] = input_rows(fwd)
        elif e in assign:
            rows_map[e] = pad([to_coords(r) for r in assign[e]])

    for r, free_edge in local_one.items():
        fixed_rows = []
        for inp in net.inputs(r):
            if inp[0] == "edge" and inp[1] == free_edge:
                continue
            fixed_rows.extend(input_rows(inp))
        tail_rows = []
        for inp in net.inputs(free_edge.tail):
            tail_rows.extend(input_rows(inp))
        span = [row for row in fixed_rows if any(row)]
        reps = []
        for m in net.demands[r]:
            for u in (to_coords(row) for row in unit_spaces[m]):
                if solve_row(ops, span + reps, u) is None:
                    reps.append(u)
        parts = []
        base = len(fixed_rows)
        stack = fixed_rows + tail_rows
        reduced = rref(ops, stack)
        for u in reps:
            combo = solve_row(ops, stack, u, reduced)
            assert combo is not None, "free-edge lift failed"
            part = zero
            for c, row in zip(combo[base:], tail_rows):
                if c:
                    mc = ops.mul[c]
                    part = tuple(ops.add[x][mc[y]] for x, y in zip(part, row))
            parts.append(part)
        rows_map[free_edge] = pad(fl.canon_space(ops, parts))

    stacks = {}

    def coeff_blocks(node, targets):
        ins = net.inputs(node)
        got = stacks.get(node)
        if got is None:
            stack = [row for inp in ins for row in input_rows(inp)]
            got = stacks[node] = (stack, rref(ops, stack))
        stack, reduced = got
        per_input = [[[0] * k for _ in range(k)] for _ in range(len(ins))]
        for a, target in enumerate(targets):
            combo = solve_row(ops, stack, target, reduced)
            assert combo is not None, "witness row left its input span"
            for i in range(len(ins)):
                for b in range(k):
                    per_input[i][a][b] = combo[i * k + b]
        if k == 1:
            return tuple(block[0][0] for block in per_input)
        return tuple(ring.mat_from_entries(block) for block in per_input)

    edge_coeffs = {}
    for e, fwd in normalized.items():
        ins = net.inputs(e.tail)
        edge_coeffs[e] = ((ring.one,) if len(ins) == 1 else
                          tuple(ring.one if inp == fwd else 0 for inp in ins))
    for e in net.edges:
        if e not in edge_coeffs:
            edge_coeffs[e] = coeff_blocks(e.tail, rows_map[e])

    decodings = {}
    for r in net.receivers:
        for m in net.demands[r]:
            targets = [unit_coord(mpos[m] * k + a) for a in range(k)]
            decodings[(r, m)] = coeff_blocks(r, targets)

    return codes.LinearCode(_modules.scalar_module(ring), edge_coeffs,
                            decodings)


def both_witnesses(net, ring, normalize=True, budget=None):
    """The search's result and, when it solved, the reference construction's
    code on the same assignment, and the number of free edges lifted."""
    built = []
    real = solver._rank_witness

    def twice(net_, ring_, k, alg, shape, bases):
        code = real(net_, ring_, k, alg, shape, bases)
        field, _ = solver._rank_parts(ring_)
        # the shape holds edge ids and int inputs (~m for message m); the
        # reference reads Edges and Network.inputs entries
        edges, msgs = net_.compiled().edges, net_.message_names
        mpos = {m: i for i, m in enumerate(msgs)}
        normalized = {edges[e]: ("edge", edges[x]) if x >= 0
                      else ("message", msgs[~x])
                      for e, x in shape.plan.normalized.items()}
        local_one = {net_.nodes[r]: edges[e]
                     for r, e in shape.local_one.items()}
        assign = {edges[e]: bases[i][a * k:(a + 1) * k]
                  for i, bundle in enumerate(shape.bundles)
                  for a, e in enumerate(bundle)}
        unit_spaces = {m: alg.canon([alg.unit(mpos[m] * k + a)
                                     for a in range(k)]) for m in mpos}
        built.append((reference_witness(
            net_, ring_, k, fl.FieldOps(field), alg, normalized, local_one,
            assign, unit_spaces, mpos), len(shape.local_one)))
        return code

    opts = SearchOptions(strategy="rank", normalize_forwarding=normalize)
    if budget is not None:
        opts.node_budget = budget
    with mock.patch.object(solver, "_rank_witness", twice):
        res = solve_scalar(net, ring, opts)
    if not res.solved:
        assert not built
        return res, None, 0
    [(ref, lifts)] = built
    return res, ref, lifts


def assert_same_code(code, ref):
    assert json.dumps(codes.code_to_json(code)) == \
        json.dumps(codes.code_to_json(ref))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(networks().filter(lambda net: net.demands))
def test_witness_matches_the_reference_on_drawn_networks(net):
    for ring in RINGS:
        for normalize in (True, False):
            copy = Network(net.nodes, net.edges, net.messages, net.demands)
            res, ref, lifts = both_witnesses(copy, ring, normalize, BUDGET)
            event(f"{res.status}, free edges lifted: {lifts > 0}")
            if ref is not None:
                assert_same_code(res.code, ref)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.descriptor.__class__
                         .__name__ + str(r.size))
@pytest.mark.parametrize("build", [
    m_network, lambda: choose_two_network(3), lambda: choose_two_network(5),
    lambda: dim_n_network(2)], ids=["m", "c2-3", "c2-5", "dim2"])
@pytest.mark.parametrize("normalize", [True, False])
def test_witness_matches_the_reference_on_named_networks(ring, build,
                                                         normalize):
    res, ref, _ = both_witnesses(build(), ring, normalize, 20000)
    if ref is not None:
        assert_same_code(res.code, ref)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 2), (4, 3), (6, 3)])
def test_vector_choose_two_witness_matches_the_reference(n, k):
    # over M_k(GF(2)), searched on packed rows with k rows to an edge
    ring = construct_ring(MatrixRing(PrimeField(2), k))
    res, ref, _ = both_witnesses(choose_two_network(n), ring)
    assert res.solved
    assert_same_code(res.code, ref)


# a receiver whose one unforwarded in-edge is chosen while it is checked:
# behind a forwarding relay (normalized), or alone at a receiver
# (unnormalized)
LIFTED = [
    (Network(["s", "u", "t"], [("s", "u"), ("u", "t"), ("s", "t")],
             [("m1", "s"), ("m2", "s")], {"t": ("m1", "m2")}), True),
    (Network(["s", "t1", "t2"], [("s", "t1"), ("s", "t2", 0), ("s", "t2", 1)],
             [("m1", "s"), ("m2", "s")], {"t1": ("m2",), "t2": ("m1", "m2")}),
     False),
]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.descriptor.__class__
                         .__name__ + str(r.size))
@pytest.mark.parametrize("case", range(len(LIFTED)))
def test_free_edges_are_lifted_the_same_way(ring, case):
    net, normalize = LIFTED[case]
    res, ref, lifts = both_witnesses(net, ring, normalize)
    assert res.solved and lifts > 0
    assert_same_code(res.code, ref)

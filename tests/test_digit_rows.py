"""The digit-row rule of the symbolic check against a scalar reference.

Random codes, not only solutions, on small generated networks: each edge
and decode of `transfer_vectors` and `verify_solution` is recomputed here
one ring element at a time with the ring's scalar add and mul, and the
index rows, `Verdict.checks` and `failure` dicts must come out equal, down
to the Python types in them.  Every compound ring kind is covered, nested
ones included, M_3(GF(3)) above the dense-table cap among them, and each
ring that fits the cap once more with its tables built, which sends it
down the scalar rule.
"""
import random

import numpy as np
import pytest

from netring import codes
from netring.codes import (LinearCode, entropy_of, routing_code_dim_n,
                           transfer_vectors, variable_rows, verify_solution)
from netring.modules import scalar_module, vector_module
from netring.networks import Network, validate_network
from netring.rings import (TABLE_CAP, GaloisField, IntegersMod, MatrixRing,
                           PrimeField, Product, TableRing, UpperTriangular,
                           construct_ring, describe)

GF2, GF3, GF4 = PrimeField(2), PrimeField(3), GaloisField(2, 2)
DESCS = [
    GF4, GaloisField(2, 3), GaloisField(3, 2),
    MatrixRing(GF2, 2), MatrixRing(GF2, 3), MatrixRing(GF3, 2),
    MatrixRing(GF3, 3),
    UpperTriangular(GF2, 2), UpperTriangular(GF2, 3),
    Product((GF2, GF3)), Product((IntegersMod(4), GF2)), MatrixRing(GF4, 2),
    Product((GF4, GF2)), Product((MatrixRing(GF2, 2), MatrixRing(GF2, 2))),
]
CODES_PER_RING = 30


def _network(rnd: random.Random) -> Network:
    """One to three sources (the first may own two messages), up to two
    relays, one or two receivers, parallel edges anywhere."""
    sources = [f"s{i}" for i in range(rnd.randint(1, 3))]
    relays = [f"u{i}" for i in range(rnd.randint(0, 2))]
    receivers = [f"t{i}" for i in range(rnd.randint(1, 2))]
    messages = [(f"m{i}", s) for i, s in enumerate(sources)]
    if rnd.random() < 0.5:
        messages.append((f"m{len(sources)}", sources[0]))
    edges = []

    def feed(head, earlier, most):
        count = {}
        for _ in range(rnd.randint(1, most)):
            tail = rnd.choice(earlier)
            count[tail] = count.get(tail, 0) + 1
            edges.append((tail, head, count[tail] - 1))

    for i, u in enumerate(relays):
        feed(u, sources + relays[:i], 2)
    for t in receivers:
        feed(t, sources + relays, 3)
    owner = dict(messages)
    reach = {v: {v} for v in sources + relays + receivers}
    for tail, head, _ in edges:
        reach[head] |= reach[tail]
    demands = {}
    for t in receivers:
        seen = sorted(m for m, s in owner.items() if s in reach[t])
        if seen:
            demands[t] = tuple(rnd.sample(seen, rnd.randint(1, len(seen))))
    net = Network(sources + relays + receivers, edges, messages, demands)
    assert not validate_network(net)
    return net


def _random_code(rnd, net, module) -> LinearCode:
    """Coefficients mostly 0 or 1, so some decodes succeed, else random."""
    n = module.ring.size

    def coeff():
        return rnd.choice((0, 1)) if rnd.random() < 0.7 else rnd.randrange(n)

    edges = {e: tuple(coeff() for _ in net.inputs(e.tail)) for e in net.edges}
    decs = {(r, m): tuple(coeff() for _ in net.inputs(r))
            for r in net.receivers for m in net.demands[r]}
    return LinearCode(module, edges, decs)


def _reference(net, code):
    """Transfer rows, checks and first failure, one product at a time."""
    ring = code.module.ring
    msgs = net.message_names
    pos = {m: i for i, m in enumerate(msgs)}

    def unit(m):
        return tuple(ring.one if i == pos[m] else 0 for i in range(len(msgs)))

    def combine(cs, rows):
        acc = [0] * len(msgs)
        for c, row in zip(cs, rows):
            for i, x in enumerate(row):
                acc[i] = ring.add(acc[i], ring.mul(c, x))
        return tuple(acc)

    rows = {}
    for e in net.topo_edges():
        rows[e] = combine(code.edge_coeffs[e],
                          [rows[ref] if kind == "edge" else unit(ref)
                           for kind, ref in net.inputs(e.tail)])
    checks, failure = {}, None
    for r in net.receivers:
        ins = [rows[ref] if kind == "edge" else unit(ref)
               for kind, ref in net.inputs(r)]
        for m in net.demands[r]:
            got = combine(code.decodings[(r, m)], ins)
            checks[(r, m)] = got == unit(m)
            if got != unit(m) and failure is None:
                failure = {"receiver": r, "message": m,
                           "decoded_row": got, "expected_row": unit(m)}
    return rows, checks, failure


def _plain_ints(row) -> bool:
    return isinstance(row, tuple) and all(type(x) is int for x in row)


def _cases():
    for desc in DESCS:
        yield pytest.param(desc, False, id=f"{describe(desc)}")
        if construct_ring(desc).has_tables():
            yield pytest.param(desc, True, id=f"{describe(desc)}-tables")


@pytest.mark.parametrize("desc,tables", list(_cases()))
def test_digit_rows_match_scalar_reference(desc, tables):
    ring = construct_ring(desc)
    if tables:
        ring.mul_table()
    module = scalar_module(ring)
    rnd = random.Random(f"{describe(desc)}:{tables}")
    solved = 0
    for _ in range(CODES_PER_RING):
        net = _network(rnd)
        code = _random_code(rnd, net, module)
        # the rule under test: digit rows unless the tables exist
        assert codes._Rows(code, len(net.message_names)).digit == (not tables)
        rows, checks, failure = _reference(net, code)
        got = transfer_vectors(net, code)
        assert got == rows
        assert all(_plain_ints(row) for row in got.values())
        verdict = verify_solution(net, code)
        assert verdict.checks == checks
        assert verdict.failure == failure
        assert verdict.solved == all(checks.values())
        if failure is not None:
            assert _plain_ints(verdict.failure["decoded_row"])
        solved += any(checks.values())
    assert solved, "no code decoded anything; the draw tests one branch only"


@pytest.mark.parametrize("field,k", [(GF2, 2), (GF2, 3), (GF3, 2), (GF4, 2)])
def test_vector_rows_match_entry_grids(field, k):
    """variable_rows reads each coefficient's k x k grid off its digits; the
    reference reads it with mat_entries."""
    module = vector_module(construct_ring(field), k)
    rnd = random.Random(f"vector:{describe(field)}:{k}")
    for _ in range(10):
        net = _network(rnd)
        code = _random_code(rnd, net, module)
        rows, _, _ = _reference(net, code)
        for e in net.edges:
            want = [tuple(module.ring.mat_entries(c)[a][b]
                          for c in rows[e] for b in range(k))
                    for a in range(k)]
            assert variable_rows(net, code, e) == want
        assert entropy_of(net, code, list(net.message_names)).value \
            == k * len(net.message_names)


def test_left_multiplication_matches_scalar_products():
    rnd = random.Random(7)
    for desc in DESCS + [MatrixRing(GF2, 4), MatrixRing(IntegersMod(4), 2)]:
        ring = construct_ring(desc)
        xs = np.array([rnd.randrange(ring.size) for _ in range(60)] + [0, 1])
        ys = np.array([rnd.randrange(ring.size) for _ in range(62)])
        assert (ring.from_digits(ring.digits(xs)) == xs).all()
        lmul = ring.left_mul_matrices(xs)
        prod = np.einsum("nj,njd->nd", ring.digits(ys), lmul) % ring.digit_moduli
        assert ring.from_digits(prod).tolist() == \
            [ring.mul(int(a), int(b)) for a, b in zip(xs, ys)], describe(desc)


def test_codec_builds_no_size_long_arrays():
    """The flat codec and the tensor stay small for a ring far above the
    table cap, and the scalar coords agree with the array ones."""
    ring = construct_ring(MatrixRing(GF3, 4))       # 3^16 elements
    assert ring.mul_tensor.shape == (16, 16, 16)
    idx = np.array([0, 1, 2, ring.size - 1, 12345678])
    assert ring.coords(idx).tolist() == [list(ring.coords(int(i))) for i in idx]
    assert ring._coord_array is None
    # verifying and measuring a code over a ring above the cap builds
    # neither a coordinate array nor tables
    net, code = routing_code_dim_n(3, construct_ring(GF3))
    mat = code.module.ring
    assert mat.size > TABLE_CAP
    assert verify_solution(net, code).solved
    assert entropy_of(net, code, sorted(net.edges)[:3]).value <= 9
    assert mat._coord_array is None and not mat.tables_built()


def test_rings_without_a_digit_rule_keep_the_scalar_rule():
    """A table ring among the leaves, or a residue modulus too large for
    int64 digit sums, leaves the ring on the scalar rule."""
    f2 = TableRing([[0, 1], [1, 0]], [[0, 0], [0, 1]])
    over_table = construct_ring(MatrixRing(f2, 2))
    huge = construct_ring(MatrixRing(IntegersMod((1 << 20) + 7), 2))
    assert over_table.mul_tensor is None and huge.mul_tensor is None
    rnd = random.Random(11)
    for ring in (over_table, huge):
        module = scalar_module(ring)
        for _ in range(5):
            net = _network(rnd)
            code = _random_code(rnd, net, module)
            assert not codes._Rows(code, len(net.message_names)).digit
            rows, checks, failure = _reference(net, code)
            assert transfer_vectors(net, code) == rows
            verdict = verify_solution(net, code)
            assert (verdict.checks, verdict.failure) == (checks, failure)

"""The whole-array kernels of both verifiers against their references.

semantic_verify adds through the group's flattened addition table with 1-D
takes; the reference below is the two-dimensional gather it replaced,
``gadd[acc, act[c, y]]``, kept here unchanged.  Both must return equal
verdicts, down to the Python types in the failure dict, on the kinds of
code the benchmark corpus holds and on corrupted copies of them, on a
table module parsed from JSON, on a ring without identity and across
chunk boundaries.

The digit rule of the coefficient check multiplies one input block per
node by a stacked matrix per coefficient tuple, and takes block j for a
tuple that is the identity at input j and zero elsewhere; those cases are
checked against tests/test_digit_rows.py's scalar reference.
"""
import random

import numpy as np
import pytest

from netring import codes
from netring.codes import (LinearCode, Verdict, check_shape,
                           explicit_m_network_code, routing_code_dim_n,
                           semantic_verify, transfer_vectors, verify_solution)
from netring.modules import (additive_group, construct_module, cyclic,
                             module_from_json, module_to_json, scalar_module)
from netring.networks import Network, choose_two_network, trivial_network
from netring.rings import (GaloisField, IntegersMod, MatrixRing, PrimeField,
                           Product, TableRing, UpperTriangular, construct_ring,
                           describe)
from netring.solver import solve_scalar, solve_vector
from netring.transforms import matrix_scalar_to_vector
from test_digit_rows import _network, _random_code, _reference

GF2, GF3, GF5, GF7 = (PrimeField(p) for p in (2, 3, 5, 7))
GF4, GF8, GF9 = GaloisField(2, 2), GaloisField(2, 3), GaloisField(3, 2)
M2F2 = MatrixRing(GF2, 2)
SEMANTIC_STATES = 1 << 20    # the assignments a corpus code may take
SEMANTIC_PAIRS = 1 << 14     # ring x group entries of its action table


def semantic_reference(net, code) -> Verdict:
    """semantic_verify with two-dimensional gathers into the tables."""
    coeffs = check_shape(net, code)
    cn = net.compiled()
    module = code.module
    G = module.group.size
    msgs = net.message_names
    m = len(msgs)
    total = G ** m
    act = module.act_table()
    gadd = module.group.add_table()
    weights = [G ** (m - 1 - i) for i in range(m)]
    checks = {}
    failure = None
    for base in range(0, total, codes.SEMANTIC_CHUNK):
        count = min(codes.SEMANTIC_CHUNK, total - base)
        idx = np.arange(base, base + count, dtype=np.int64)
        val = [(idx // w) % G for w in weights]
        rows = []

        def value(cs, inputs):
            acc = np.zeros(count, dtype=np.int64)
            for c, x in zip(cs, inputs):
                acc = gadd[acc, act[c, rows[x] if x >= 0 else val[~x]]]
            return acc

        for e, tail in enumerate(cn.tails):
            rows.append(value(coeffs[e], cn.inputs[tail]))
        for r, v, demand in cn.receivers:
            for i in demand:
                key = (r, msgs[i])
                acc = value(code.decodings[key], cn.inputs[v])
                ok = bool((acc == val[i]).all())
                checks[key] = checks.get(key, True) and ok
                if not ok and failure is None:
                    bad = int((acc != val[i]).argmax())
                    failure = {
                        "receiver": r, "message": msgs[i],
                        "assignment": {name: int(got[bad])
                                       for name, got in zip(msgs, val)},
                        "decoded": int(acc[bad]), "expected": int(val[i][bad]),
                    }
    return Verdict(all(checks.values()), checks, failure, "semantic")


def _typed(x):
    """x with the type of every leaf beside it, so == also compares types."""
    if isinstance(x, dict):
        return {k: _typed(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x), [_typed(v) for v in x]
    return type(x), x


def assert_same_verdict(net, code):
    got, want = semantic_verify(net, code), semantic_reference(net, code)
    assert _typed(got.__dict__) == _typed(want.__dict__)
    return got


def _corrupt(code, rnd):
    """Zero one decoding row, picked by rnd."""
    decs = dict(code.decodings)
    key = rnd.choice(sorted(decs))
    decs[key] = tuple(0 for _ in decs[key])
    return LinearCode(code.module, dict(code.edge_coeffs), decs)


# -- a corpus of the benchmark's kinds: routing, explicit M-network (scalar
#    and vector), a solved vector code, pair forwarding, choose-two winners,
#    relays and two-hop chains

def _pair_forwarding(ring):
    net = Network(["s", "t"], [("s", "t", 0), ("s", "t", 1)],
                  [("m1", "s"), ("m2", "s")], {"t": ("m1", "m2")})
    e0, e1 = net.topo_edges()
    one = ring.one
    return net, LinearCode(scalar_module(ring), {e0: (one, 0), e1: (0, one)},
                           {("t", "m1"): (one, 0), ("t", "m2"): (0, one)})


def _chain2():
    return Network(["s", "u", "t"],
                   [("s", "u", 0), ("s", "u", 1), ("u", "t", 0), ("u", "t", 1)],
                   [("m1", "s"), ("m2", "s")], {"t": ("m1", "m2")})


PAIR_RINGS = (
    GF2, GF3, GF5, GF7, PrimeField(11), GF4, GF8, GaloisField(2, 4), GF9,
    GaloisField(5, 2), IntegersMod(4), IntegersMod(6), IntegersMod(8),
    IntegersMod(9), IntegersMod(12), IntegersMod(16), M2F2, MatrixRing(GF3, 2),
    UpperTriangular(GF2, 2), UpperTriangular(GF3, 2), Product((GF2, GF3)),
    Product((IntegersMod(4), GF2)), Product((GF2, GF2, GF2)),
    Product((GF4, GF2)), UpperTriangular(GF2, 3), UpperTriangular(GF4, 2),
)
CHOOSE_TWO_WINS = (
    (2, (GF2, GF3, GF4, IntegersMod(4), Product((GF2, GF2)), IntegersMod(6))),
    (3, (GF2, GF3, GF4, GF5)),
    (4, (GF3, GF4, GF5)),
    (5, (GF4, GF5)),
    (6, (GF5, GF7, GF8)),
    (7, (GF7, GF8, GF9)),
)


def _corpus():
    out = []
    for n in (2, 3):
        for f in (GF2, GF3):
            net, code = routing_code_dim_n(n, construct_ring(f))
            out.append((f"routing/{n}/{describe(f)}", net, code))
    net, explicit = explicit_m_network_code()
    out.append(("explicit-m", net, explicit))
    out.append(("explicit-m/vector", net, matrix_scalar_to_vector(explicit)))
    c4 = choose_two_network(4)
    out.append(("vector/c2/4", c4, solve_vector(c4, construct_ring(GF2), 2).code))
    for desc in PAIR_RINGS:
        out.append((f"pair/{describe(desc)}",
                    *_pair_forwarding(construct_ring(desc))))
    for n, descs in CHOOSE_TWO_WINS:
        net = choose_two_network(n)
        for desc in descs:
            res = solve_scalar(net, construct_ring(desc))
            out.append((f"c2/{n}/{describe(desc)}", net, res.code))
    for desc in (IntegersMod(4), GF4):
        net = trivial_network()
        out.append((f"relay/{describe(desc)}", net,
                    solve_scalar(net, construct_ring(desc)).code))
    for desc in (GF2, GF3):
        net = _chain2()
        out.append((f"chain2/{describe(desc)}", net,
                    solve_scalar(net, construct_ring(desc)).code))
    return out


def _small_enough(net, code):
    mod = code.module
    return (mod.group.size ** len(net.message_names) <= SEMANTIC_STATES
            and mod.ring.size * mod.group.size <= SEMANTIC_PAIRS)


def test_corpus_codes_and_corrupted_copies_match_the_reference():
    rnd = random.Random(22)
    checked = set()
    for label, net, code in _corpus():
        if not _small_enough(net, code):
            continue
        checked.add(label.split("/")[0])
        assert assert_same_verdict(net, code).solved, label
        bad = assert_same_verdict(net, _corrupt(code, rnd))
        assert not bad.solved and bad.failure is not None, label
    assert checked == {"routing", "explicit-m", "vector", "pair", "c2",
                       "relay", "chain2"}


def test_chunks_match_the_reference(monkeypatch):
    """explicit-M's 65,536 assignments are two chunks; a chunk of 1,000
    leaves a short last one and moves the first failure past chunk 4."""
    net, code = explicit_m_network_code()
    assert 16 ** 4 == 2 * codes.SEMANTIC_CHUNK
    bad = LinearCode(code.module, code.edge_coeffs,
                     code.decodings | {("6", "W"): (0, 0, 0)})
    for chunk in (codes.SEMANTIC_CHUNK, 1000):
        monkeypatch.setattr(codes, "SEMANTIC_CHUNK", chunk)
        assert assert_same_verdict(net, code).solved
        got = assert_same_verdict(net, bad)
        assert got.checks[("6", "W")] is False
        assert got.failure["assignment"]["W"] != 0


def test_a_table_module_from_json_matches_the_reference():
    """Z_4 acting on Z_2 through reduction mod 2: neither a scalar nor a
    vector module, so its JSON is the explicit tables."""
    z4 = construct_ring(IntegersMod(4))
    mod = construct_module(z4, cyclic(2), lambda r, g: (r % 2) * g)
    data = module_to_json(mod)
    assert data["kind"] == "table"
    parsed = module_from_json(data)
    rnd = random.Random(5)
    outcomes = set()
    for _ in range(40):
        net = _network(rnd)
        outcomes.add(assert_same_verdict(net, _random_code(rnd, net, parsed))
                     .solved)
    net, code = _pair_forwarding(z4)
    code = LinearCode(parsed, code.edge_coeffs, code.decodings)
    outcomes.add(assert_same_verdict(net, code).solved)
    assert outcomes == {True, False}


def test_an_rng_matches_the_reference():
    """The even residues mod 8, a ring without identity, acting on itself:
    the symbolic check refuses it, the semantic one evaluates it."""
    values = (0, 2, 4, 6)
    pos = {v: i for i, v in enumerate(values)}
    rng = construct_ring(TableRing(
        tuple(tuple(pos[(a + b) % 8] for b in values) for a in values),
        tuple(tuple(pos[(a * b) % 8] for b in values) for a in values),
        unital=False))
    assert not rng.unital
    mod = construct_module(rng, additive_group(rng), rng.mul)
    rnd = random.Random(9)
    failed = 0
    for _ in range(30):
        net = _network(rnd)
        code = _random_code(rnd, net, mod)
        failed += not assert_same_verdict(net, code).solved
        with pytest.raises(ValueError, match="unital"):
            transfer_vectors(net, code)
    assert failed


# -- the digit rule's node block, tuple stacks and unit-pattern blocks

DIGIT_RINGS = (M2F2, GF4, UpperTriangular(GF2, 2), Product((GF2, GF3)),
               MatrixRing(GF3, 2))


def _unit_code(rnd, net, module):
    """Every edge and decoding takes one input as is."""
    one = module.ring.one

    def pick(width):
        j = rnd.randrange(width)
        return tuple(one if i == j else 0 for i in range(width))

    return LinearCode(
        module, {e: pick(len(net.inputs(e.tail))) for e in net.edges},
        {(r, m): pick(len(net.inputs(r)))
         for r in net.receivers for m in net.demands[r]})


def _mixing_code(rnd, net, module):
    """No tuple is a unit pattern: every coefficient is neither 0 nor 1."""
    ring = module.ring
    others = [c for c in range(ring.size) if c not in (0, ring.one)]

    def draw(width):
        return tuple(rnd.choice(others) for _ in range(width))

    return LinearCode(
        module, {e: draw(len(net.inputs(e.tail))) for e in net.edges},
        {(r, m): draw(len(net.inputs(r)))
         for r in net.receivers for m in net.demands[r]})


def assert_matches_scalar_reference(net, code):
    rows, checks, failure = _reference(net, code)
    assert transfer_vectors(net, code) == rows
    verdict = verify_solution(net, code)
    assert (verdict.checks, verdict.failure) == (checks, failure)
    return verdict


def _stacks(net, code):
    """The digit rule's tuple stacks after propagating the code."""
    rows, _ = codes._propagate(net, code)
    assert rows.digit
    return rows.stacks


@pytest.mark.parametrize("desc", DIGIT_RINGS, ids=describe)
def test_unit_pattern_codes_take_blocks(desc):
    module = scalar_module(construct_ring(desc))
    rnd = random.Random(f"unit:{describe(desc)}")
    solved = 0
    for _ in range(15):
        net = _network(rnd)
        code = _unit_code(rnd, net, module)
        solved += assert_matches_scalar_reference(net, code).solved
        stacks = _stacks(net, code)
        assert stacks and all(isinstance(s, slice) for s in stacks.values())
        assert len(stacks) == len(set(code.edge_coeffs.values()))
    assert solved
    assert not module.ring.tables_built()


@pytest.mark.parametrize("desc", DIGIT_RINGS, ids=describe)
def test_codes_without_unit_patterns_multiply(desc):
    module = scalar_module(construct_ring(desc))
    rnd = random.Random(f"mixing:{describe(desc)}")
    for _ in range(15):
        net = _network(rnd)
        code = _mixing_code(rnd, net, module)
        assert_matches_scalar_reference(net, code)
        stacks = _stacks(net, code)
        assert all(isinstance(s, np.ndarray) for s in stacks.values())
        d = len(module.ring.digit_moduli)
        assert all(s.shape == (len(cs) * d, d) for cs, s in stacks.items())
    assert not module.ring.tables_built()


def test_two_codes_over_one_ring_in_turn():
    """The stacks belong to one code's rows: verifying another code over
    the same ring object, then the first again, reads none of them."""
    ring = construct_ring(M2F2)
    module = scalar_module(ring)
    rnd = random.Random(17)
    for _ in range(10):
        net_a, net_b = _network(rnd), _network(rnd)
        a = _random_code(rnd, net_a, module)
        b = rnd.choice((_random_code, _unit_code, _mixing_code))(
            rnd, net_b, module)
        for net, code in ((net_a, a), (net_b, b), (net_a, a)):
            assert_matches_scalar_reference(net, code)
    assert not ring.tables_built()

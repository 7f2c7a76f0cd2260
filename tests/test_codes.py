"""Linear codes: transfer rows, two-way verification, entropy, stock codes."""
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce
from conftest import pair_network, wire2_network
from netring import codes, modules, networks, rings
from netring.codes import (LinearCode, code_from_json, code_to_json,
                           entropy_of, explicit_m_network_code,
                           routing_code_dim_n, semantic_verify,
                           transfer_vectors, unit_row, verify_solution)
from netring.networks import Edge


def test_unit_row():
    assert unit_row(1, 3) == (0, 1, 0)
    assert unit_row(0, 2, one=5) == (5, 0)


def test_transfer_rows_by_hand(gf3):
    # two parallel wires mixing two messages, coefficients fixed by hand
    net = pair_network()
    e0, e1 = sorted(net.edges, key=lambda e: e.ordinal)
    code = LinearCode(modules.scalar_module(gf3),
                      {e0: (1, 2), e1: (0, 1)},
                      {("t", "m1"): (1, 1), ("t", "m2"): (0, 0)})
    rows = transfer_vectors(net, code)
    assert rows[e0] == (1, 2)   # m1 + 2*m2
    assert rows[e1] == (0, 1)   # m2
    # and through a relay the rows compose multiplicatively
    chain = networks.Network(["s", "u", "t"],
                             [("s", "u", 0), ("s", "u", 1), ("u", "t", 0)],
                             [("m1", "s"), ("m2", "s")], {"t": ("m1",)})
    su0, su1, ut = chain.topo_edges()
    code2 = LinearCode(modules.scalar_module(gf3),
                       {su0: (1, 2), su1: (0, 1), ut: (2, 2)},
                       {("t", "m1"): (1,)})
    rows2 = transfer_vectors(chain, code2)
    assert rows2[ut] == ((2 * 1) % 3, (2 * 2 + 2 * 1) % 3)


def test_explicit_code_verifies_both_ways():
    net, code = explicit_m_network_code()
    assert code.module.ring.size == 16
    assert verify_solution(net, code).solved
    assert semantic_verify(net, code).solved
    assert bruteforce.check_code(net, code)


def test_verification_catches_corruption():
    net, code = explicit_m_network_code()
    edge = sorted(code.edge_coeffs)[0]
    bad_coeffs = dict(code.edge_coeffs)
    old = bad_coeffs[edge]
    bad_coeffs[edge] = (old[0] ^ 3,) + old[1:]
    bad = LinearCode(code.module, bad_coeffs, code.decodings)
    v1, v2 = verify_solution(net, bad), semantic_verify(net, bad)
    assert not v1.solved and not v2.solved
    assert v1.failure is not None and v2.failure is not None
    assert not bruteforce.check_code(net, bad)


def test_verify_matches_semantic_on_random_codes(gf2, gf3):
    nets = [pair_network(), wire2_network(), networks.trivial_network()]
    rng_seed = 0
    for net in nets:
        for ring in (gf2, gf3):
            module = modules.scalar_module(ring)
            arity = {e: len(net.inputs(e.tail)) for e in net.edges}
            width = len(net.inputs(net.receivers[0]))
            combos = itertools.product(
                range(ring.size),
                repeat=sum(arity.values()) + width * 2)
            for flat in itertools.islice(combos, 0, None, 7):
                rng_seed += 1
                at, coeffs = 0, {}
                for e in net.edges:
                    coeffs[e] = flat[at:at + arity[e]]
                    at += arity[e]
                decs = {}
                for r in net.receivers:
                    for i, m in enumerate(net.demands[r]):
                        decs[(r, m)] = flat[at + i * width:at + (i + 1) * width]
                code = LinearCode(module, coeffs, decs)
                assert (verify_solution(net, code).solved
                        == semantic_verify(net, code).solved
                        == bruteforce.check_code(net, code))
                if rng_seed > 160:
                    break
            else:
                continue


def test_unfaithful_module_rejected(z4):
    z2 = modules.cyclic(2)
    mod = modules.construct_module(z4, z2, lambda r, g: (r * g) % 2)
    net = networks.trivial_network()
    code = LinearCode(mod, {net.edges[0]: (1,)}, {("t", "m"): (1,)})
    with pytest.raises(ValueError, match="faithful"):
        verify_solution(net, code)
    # but the semantic check is still meaningful
    assert semantic_verify(net, code).solved


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
def test_routing_code_verifies(n, p):
    field = rings.construct_ring(rings.PrimeField(p))
    net, code = routing_code_dim_n(n, field)
    assert code.module.vector_dim == n
    assert verify_solution(net, code).solved


def test_routing_code_semantic_small(gf2):
    net, code = routing_code_dim_n(2, gf2)
    assert semantic_verify(net, code).solved


# --- entropy ----------------------------------------------------------------

def _distribution_entropy_of(net, code, variables):
    """Exhaustive joint distribution of the variables, then Shannon entropy
    in base |F| — completely independent of the rank computation."""
    module = code.module
    counts = {}
    msgs = net.message_names
    for combo in itertools.product(range(module.group.size), repeat=len(msgs)):
        assignment = dict(zip(msgs, combo))
        value = {}
        for e in net.topo_edges():
            acc = 0
            for c, (kind, ref) in zip(code.edge_coeffs[e],
                                      net.inputs(e.tail)):
                v = assignment[ref] if kind == "message" else value[ref]
                acc = module.group.add(acc, module.act(c, v))
            value[e] = acc
        key = tuple(assignment[v] if isinstance(v, str) else value[v]
                    for v in variables)
        counts[key] = counts.get(key, 0) + 1
    q = (code.module.base_ring.size if code.module.base_ring
         else module.ring.size)
    return bruteforce.distribution_entropy(counts, q)


def test_entropy_matches_distribution(gf2, gf3):
    net = pair_network()
    e0, e1 = sorted(net.edges, key=lambda e: e.ordinal)
    for ring in (gf2, gf3):
        module = modules.scalar_module(ring)
        n = ring.size
        for c in itertools.product(range(n), repeat=4):
            code = LinearCode(module, {e0: c[:2], e1: c[2:]},
                              {("t", "m1"): (0, 0), ("t", "m2"): (0, 0)})
            for variables in ([e0], [e1], [e0, e1], ["m1", e0],
                              [e0, e1, "m1", "m2"]):
                got = entropy_of(net, code, variables).value
                want = _distribution_entropy_of(net, code, variables)
                assert got == round(want), (ring.size, c, variables)
                assert abs(want - round(want)) < 1e-9


def test_entropy_of_messages_is_full(gf2):
    net, code = routing_code_dim_n(2, gf2)
    rep = entropy_of(net, code, list(net.message_names))
    assert rep.value == 2 * 4  # k * n^2
    assert rep.dimension == 2 and rep.field_size == 2


def test_entropy_requires_vector_module():
    net, code = explicit_m_network_code()
    with pytest.raises(ValueError):
        entropy_of(net, code, list(net.message_names))


# --- serialization and shape checks ----------------------------------------

def test_code_json_round_trip():
    net, code = explicit_m_network_code()
    back = code_from_json(code_to_json(code))
    assert back.edge_coeffs == code.edge_coeffs
    assert back.decodings == code.decodings
    assert verify_solution(net, back).solved


def test_check_shape_rejects_malformed(gf2):
    net = pair_network()
    module = modules.scalar_module(gf2)
    e0, e1 = sorted(net.edges, key=lambda e: e.ordinal)
    good = LinearCode(module, {e0: (1, 0), e1: (0, 1)},
                      {("t", "m1"): (1, 0), ("t", "m2"): (0, 1)})
    assert verify_solution(net, good).solved
    with pytest.raises(ValueError, match="coefficients"):
        verify_solution(net, LinearCode(module, {e0: (1,), e1: (0, 1)},
                                        good.decodings))
    with pytest.raises(ValueError):
        verify_solution(net, LinearCode(module, {e0: (1, 5), e1: (0, 1)},
                                        good.decodings))
    with pytest.raises(ValueError, match="decoding"):
        verify_solution(net, LinearCode(module, good.edge_coeffs,
                                        {("t", "m1"): (1, 0)}))


def test_check_shape_keeps_its_messages_and_their_order(gf2):
    net = pair_network()
    module = modules.scalar_module(gf2)
    e0, e1 = sorted(net.edges, key=lambda e: e.ordinal)
    decs = {("t", "m1"): (1, 0), ("t", "m2"): (0, 1)}

    def message(edges, decodings=decs):
        with pytest.raises(ValueError) as err:
            codes.check_shape(net, LinearCode(module, edges, decodings))
        return str(err.value)

    assert message({e0: (1, 0)}) == "edge s->t#1 has no coefficients"
    assert message({e0: (1,), e1: (0, 1)}) == \
        "edge s->t expects 2 coefficients, got 1"
    assert message({e0: (1, 2), e1: (0, 1)}) == \
        "edge s->t has coefficients outside the ring"
    assert message({e0: (-1, 0), e1: (0, 1)}) == \
        "edge s->t has coefficients outside the ring"
    good = {e0: (1, 0), e1: (0, 1)}
    assert message(good, {("t", "m1"): (1, 0)}) == \
        "no decoding for message m2 at receiver t"
    assert message(good, {("t", "m1"): (1,), ("t", "m2"): (0, 1)}) == \
        "decoding (t, m1) expects 2 coefficients, got 1"
    assert message(good, {("t", "m1"): (1, 0), ("t", "m2"): (0, 3)}) == \
        "decoding (t, m2) leaves the ring"
    # edges first, in network order, then the decodings
    assert message({e0: (1, 5)}, {}) == \
        "edge s->t has coefficients outside the ring"
    assert message({e0: (1, 0), e1: (0,)}, {}) == \
        "edge s->t#1 expects 2 coefficients, got 1"


SCALAR_RULE_RINGS = [rings.PrimeField(3), rings.GaloisField(2, 2),
                     rings.IntegersMod(4),
                     rings.UpperTriangular(rings.PrimeField(2), 2)]


def _corrupted(good, size, count, seed):
    """good, a working code as (edge coefficients, decodings), then count
    copies with one coefficient changed at random, most of which fail, and
    count with every coefficient drawn at random, whose products of two
    drawn elements tell a left product from a right one."""
    rng = random.Random(seed)
    out = [good]
    slots = [(part, key, i) for part in (0, 1)
             for key, cs in good[part].items() for i in range(len(cs))]
    for _ in range(count):
        part, key, i = rng.choice(slots)
        copy = [dict(good[0]), dict(good[1])]
        cs = list(copy[part][key])
        cs[i] = (cs[i] + rng.randrange(1, size)) % size
        copy[part][key] = tuple(cs)
        out.append(tuple(copy))
    for _ in range(count):
        out.append(tuple({key: tuple(rng.randrange(size) for _ in cs)
                          for key, cs in part.items()} for part in good))
    return out


@pytest.mark.parametrize("desc", SCALAR_RULE_RINGS, ids=rings.describe)
def test_list_tables_give_the_call_rules_verdicts(desc, monkeypatch):
    # with dense tables the scalar rule reads them as lists; without, the
    # ring is combined by ring.add/ring.mul or, if compound, by digits.
    # Every rule must give the same Verdict: checks and failure report
    chain = networks.Network(["s", "u", "t"],
                             [("s", "u", 0), ("s", "u", 1), ("u", "t", 0),
                              ("u", "t", 1), ("s", "t", 0)],
                             [("m1", "s"), ("m2", "s")],
                             {"t": ("m1", "m2"), "u": ("m2",)})
    su0, su1, ut0, ut1, st_ = (Edge("s", "u", 0), Edge("s", "u", 1),
                               Edge("u", "t", 0), Edge("u", "t", 1),
                               Edge("s", "t", 0))
    p0, p1 = sorted(pair_network().edges, key=lambda e: e.ordinal)
    built = rings.construct_ring(desc)
    built.add_table()
    for net, good in (
            (pair_network(), ({p0: (1, 0), p1: (0, 1)},
                              {("t", "m1"): (1, 0), ("t", "m2"): (0, 1)})),
            (chain, ({su0: (1, 0), su1: (0, 1), ut0: (1, 0), ut1: (0, 1),
                      st_: (1, 1)},
                     {("t", "m1"): (0, 1, 0), ("t", "m2"): (0, 0, 1),
                      ("u", "m2"): (0, 1)}))):
        drawn = _corrupted(good, built.size, 40, rings.describe(desc))
        verdicts = {}
        for name, ring in (("lists", built),
                           ("fresh", rings.construct_ring(desc))):
            verdicts[name] = [
                verify_solution(net, LinearCode(modules.scalar_module(ring),
                                                edges, decs))
                for edges, decs in drawn]
            assert ring.tables_built() == (name == "lists")
        # the same table-built ring with ring.add/ring.mul in place of the
        # list tables
        monkeypatch.setattr(codes, "_combine_lists",
                            lambda add, mul, coeffs, rows:
                            codes._combine(built, coeffs, rows))
        verdicts["calls"] = [
            verify_solution(net, LinearCode(modules.scalar_module(built),
                                            edges, decs))
            for edges, decs in drawn]
        monkeypatch.undo()
        assert verdicts["lists"] == verdicts["fresh"] == verdicts["calls"]
        assert verdicts["lists"][0].solved
        failed = [v for v in verdicts["lists"] if not v.solved]
        assert len(failed) > 10
        assert all(v.failure is not None for v in failed)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3 ** 8 - 1))
def test_pair_network_verdict_agreement_gf3(gf3, value):
    # decode both messages from two mixed wires: the 2x2 coefficient matrix
    # must be invertible, and both checks must agree on that
    net = pair_network()
    e0, e1 = sorted(net.edges, key=lambda e: e.ordinal)
    digits = []
    v = value
    for _ in range(8):
        digits.append(v % 3)
        v //= 3
    module = modules.scalar_module(gf3)
    code = LinearCode(module, {e0: tuple(digits[:2]), e1: tuple(digits[2:4])},
                      {("t", "m1"): tuple(digits[4:6]),
                       ("t", "m2"): tuple(digits[6:8])})
    assert verify_solution(net, code).solved == semantic_verify(net,
                                                                code).solved

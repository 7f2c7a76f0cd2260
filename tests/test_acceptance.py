"""Release gate: twelve end-to-end checks over the whole toolkit.

Each test covers one advertised guarantee and prints a single summary line
on success (run with ``pytest tests/test_acceptance.py -s`` to see them).
Expected values are exact -- everything here is finite algebra, so there
are no tolerances -- and wall-clock limits are asserted wherever a
guarantee includes one.
"""
import itertools
import random
import time
from collections import Counter

import bruteforce
from conftest import (chain2_network, chain_network, pair_network,
                      starve_network, wire2_network)
from netring import (
    Edge, GaloisField, IntegersMod, LinearCode, MatrixRing, PrimeField,
    Product, SearchOptions, TableRing, UpperTriangular, choose_two_network,
    construct_ring, describe, dim_sum, entropy_of, explicit_m_network_code,
    find_homomorphisms, find_isomorphism, hom_lift, m_network,
    matrix_scalar_to_vector, nonunital_demo, product_code, quotient,
    quotient_by_annihilator, radical, routing_code_dim_n, scalar_module,
    semantic_verify, semisimple_catalog, simple_reduction,
    smallest_ring_search, solve_scalar, solve_vector, trivial_network,
    vector_to_matrix_scalar, verify_solution,
)


def _report(num, text):
    print(f"criterion {num:02d}: PASS - {text}")


def _dual_numbers():
    """Z_2[x]/(x^2): a + b*x stored as a + 2*b."""
    pairs = [(i & 1, i >> 1) for i in range(4)]
    add = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
    mul = tuple(tuple((a * c) | (((a * d + b * c) & 1) << 1)
                      for (c, d) in pairs)
                for (a, b) in pairs)
    return construct_ring(TableRing(add, mul))


# ---------------------------------------------------------------------------
# 1. the explicit hand solution and its vector reading

def test_c01_explicit_code_and_its_vector_form():
    t0 = time.perf_counter()
    net, code = explicit_m_network_code()
    ring = code.module.ring
    assert ring.kind == "matrix" and ring.size == 16
    assert verify_solution(net, code).solved

    vec = matrix_scalar_to_vector(code)
    assert vec.module.vector_dim == 2
    assert vec.module.base_ring.size == 2
    assert verify_solution(net, vec).solved

    states = vec.module.group.size ** len(net.message_names)
    assert states == 256
    assert semantic_verify(net, vec).solved

    dt = time.perf_counter() - t0
    assert dt < 1.0
    _report(1, "explicit 2x2-matrix code and its 2-dim vector form verify; "
               f"semantic sweep over all {states} assignments agrees "
               f"({dt:.2f}s)")


# ---------------------------------------------------------------------------
# 2. scalar search fails where the vector search succeeds

_M_VECTOR_WITNESS = {}


def _m_vector_witness(field, k):
    code = _M_VECTOR_WITNESS.get(k)
    if code is None:
        res = solve_vector(m_network(), field, k)
        assert res.solved
        code = _M_VECTOR_WITNESS[k] = res.code
    return code


def test_c02_scalar_exhausted_but_vector_solvable(gf2):
    net = m_network()
    for desc, limit in ((PrimeField(2), 60.0), (PrimeField(3), 60.0),
                        (GaloisField(2, 2), 900.0)):
        t0 = time.perf_counter()
        res = solve_scalar(net, construct_ring(desc))
        dt = time.perf_counter() - t0
        assert res.status == "exhausted-unsolvable", describe(desc)
        assert dt < limit, describe(desc)

    status = {}
    for k in (1, 2, 4):
        res = solve_vector(net, gf2, k)
        status[k] = res.status
        if res.solved:
            _M_VECTOR_WITNESS[k] = res.code
            assert verify_solution(net, res.code).solved
            assert semantic_verify(net, res.code).solved
    assert status == {1: "exhausted-unsolvable", 2: "solved", 4: "solved"}
    _report(2, "no scalar code over GF(2)/GF(3)/GF(4); vector codes over "
               "GF(2) exist at dims 2 and 4 but not at dim 1")


# ---------------------------------------------------------------------------
# 3. every commutative ring with four elements fails

def test_c03_all_order_four_commutative_rings_fail():
    t0 = time.perf_counter()
    net = m_network()
    rings4 = [
        ("Z_4", construct_ring(IntegersMod(4))),
        ("GF(4)", construct_ring(GaloisField(2, 2))),
        ("Z_2[x]/(x^2)", _dual_numbers()),
        ("GF(2) x GF(2)",
         construct_ring(Product((PrimeField(2), PrimeField(2))))),
    ]
    # the list really is the full classification: four unital commutative
    # rings of order four, pairwise non-isomorphic
    for _, ring in rings4:
        assert ring.size == 4 and ring.unital
        assert all(ring.mul(a, b) == ring.mul(b, a)
                   for a in range(4) for b in range(4))
    for (na, ra), (nb, rb) in itertools.combinations(rings4, 2):
        assert find_isomorphism(ra, rb) is None, (na, nb)

    for name, ring in rings4:
        res = solve_scalar(net, ring)
        assert res.status == "exhausted-unsolvable", name

    dt = time.perf_counter() - t0
    assert dt < 1800.0
    _report(3, "all four commutative rings of order 4 exhausted without a "
               f"code ({dt:.1f}s total)")


# ---------------------------------------------------------------------------
# 4. the dimension-n routing family

def test_c04_routing_solutions_verify():
    worst = 0.0
    for n in (2, 3):
        for p in (2, 3):
            t0 = time.perf_counter()
            net, code = routing_code_dim_n(n, construct_ring(PrimeField(p)))
            assert verify_solution(net, code).solved, (n, p)
            dt = time.perf_counter() - t0
            assert dt < 10.0, (n, p)
            worst = max(worst, dt)
    _report(4, "dimension-2 and -3 routing codes over GF(2) and GF(3) "
               f"verify (slowest {worst:.2f}s)")


# ---------------------------------------------------------------------------
# 5. field-size threshold of the pairwise-demand family

def test_c05_pairwise_demand_threshold():
    t0 = time.perf_counter()
    fields = ((2, PrimeField(2)), (3, PrimeField(3)),
              (4, GaloisField(2, 2)), (5, PrimeField(5)))
    got, want = {}, {}
    for n in (3, 4, 5):
        net = choose_two_network(n)
        for q, desc in fields:
            res = solve_scalar(net, construct_ring(desc))
            got[(n, q)] = res.status
            want[(n, q)] = ("solved" if q >= n - 1
                            else "exhausted-unsolvable")
            if res.solved:
                assert verify_solution(net, res.code).solved
    assert got == want
    dt = time.perf_counter() - t0
    assert dt < 300.0
    _report(5, "solvable over GF(q) exactly when q >= n-1, across n in 3..5 "
               f"and q in {{2,3,4,5}} ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 6. smallest-ring sweep

def test_c06_smallest_ring_sweep():
    report = smallest_ring_search(m_network(), 16)
    assert report.minimal_size == 16
    assert [v.name for v in report.winners] == ["M_2(GF(2))"]
    assert all(v.status == "exhausted-unsolvable"
               for v in report.verdicts if v.size < 16)
    assert ("complete for every finite ring with identity up to 16 elements"
            in report.coverage)
    _report(6, "simple-ring sweep up to 16 elements finds M_2(GF(2)) alone, "
               "complete over every finite ring with identity")


# ---------------------------------------------------------------------------
# 7. the semisimple catalogue

def test_c07_semisimple_catalogue_is_radical_free():
    t0 = time.perf_counter()
    counts = [len(semisimple_catalog(2, k)) for k in range(1, 7)]
    assert counts == [1, 2, 3, 6, 8, 13]
    names = set()
    for k in range(1, 7):
        for desc in semisimple_catalog(2, k):
            assert radical(construct_ring(desc)).elements == (0,), desc
            names.add(describe(desc))
    assert len(names) == sum(counts) == 33
    dt = time.perf_counter() - t0
    _report(7, "catalogue sizes 1,2,3,6,8,13 for orders 2^1..2^6; all 33 "
               f"entries have zero radical ({dt:.1f}s)")


# ---------------------------------------------------------------------------
# 8. radical computations

def test_c08_radicals_and_semisimple_quotients(z4, m2f2):
    assert radical(z4).elements == (0, 2)
    assert radical(m2f2).elements == (0,)
    for p in (2, 3):
        ut = construct_ring(UpperTriangular(PrimeField(p), 2))
        rad = radical(ut)
        assert len(rad.elements) == p
        quo, _ = quotient(ut, rad)
        pair = construct_ring(Product((PrimeField(p), PrimeField(p))))
        assert find_isomorphism(quo, pair) is not None, p
    _report(8, "radicals of Z_4, M_2(GF(2)) and the 2x2 upper-triangular "
               "rings are as expected, with quotients GF(p) x GF(p)")


# ---------------------------------------------------------------------------
# 9. a corpus of working codes survives every transform

_PAIR_RINGS = (
    PrimeField(2), PrimeField(3), PrimeField(5), PrimeField(7),
    PrimeField(11),
    GaloisField(2, 2), GaloisField(2, 3), GaloisField(2, 4),
    GaloisField(3, 2), GaloisField(5, 2),
    IntegersMod(4), IntegersMod(6), IntegersMod(8), IntegersMod(9),
    IntegersMod(12), IntegersMod(16),
    MatrixRing(PrimeField(2), 2), MatrixRing(PrimeField(3), 2),
    UpperTriangular(PrimeField(2), 2), UpperTriangular(PrimeField(3), 2),
    Product((PrimeField(2), PrimeField(3))),
    Product((IntegersMod(4), PrimeField(2))),
    Product((PrimeField(2), PrimeField(2), PrimeField(2))),
    Product((GaloisField(2, 2), PrimeField(2))),
)

_CHOOSE_TWO_WINS = (
    (2, (PrimeField(2), PrimeField(3), GaloisField(2, 2), IntegersMod(4),
         Product((PrimeField(2), PrimeField(2))), IntegersMod(6))),
    (3, (PrimeField(2), PrimeField(3), GaloisField(2, 2), PrimeField(5))),
    (4, (PrimeField(3), GaloisField(2, 2), PrimeField(5))),
    (5, (GaloisField(2, 2), PrimeField(5))),
)

_CORPUS = []


def _pair_forwarding_code(ring):
    """Route m1 and m2 over the two parallel edges with unit coefficients."""
    net = pair_network()
    e0, e1 = net.topo_edges()
    one = ring.one
    code = LinearCode(scalar_module(ring),
                      {e0: (one, 0), e1: (0, one)},
                      {("t", "m1"): (one, 0), ("t", "m2"): (0, one)})
    return net, code


def _corpus():
    """At least fifty codes, each verified working on its network."""
    if _CORPUS:
        return _CORPUS

    def add(label, net, code):
        assert verify_solution(net, code).solved, label
        _CORPUS.append((label, net, code))

    for n in (2, 3):
        for p in (2, 3):
            net, code = routing_code_dim_n(n, construct_ring(PrimeField(p)))
            add(f"routing n={n} GF({p})", net, code)
    net, explicit = explicit_m_network_code()
    add("explicit matrix code", net, explicit)
    add("explicit code, vector form", net, matrix_scalar_to_vector(explicit))
    add("vector dim-2 search witness", m_network(),
        _m_vector_witness(construct_ring(PrimeField(2)), 2))

    for desc in _PAIR_RINGS:
        net, code = _pair_forwarding_code(construct_ring(desc))
        add(f"forwarding over {describe(desc)}", net, code)
    net, code = _pair_forwarding_code(_dual_numbers())
    add("forwarding over Z_2[x]/(x^2)", net, code)

    for n, descs in _CHOOSE_TWO_WINS:
        cnet = choose_two_network(n)
        for desc in descs:
            res = solve_scalar(cnet, construct_ring(desc))
            assert res.solved, (n, describe(desc))
            add(f"choose-two n={n} over {describe(desc)}", cnet, res.code)

    for desc in (IntegersMod(4), GaloisField(2, 2)):
        tnet = trivial_network()
        res = solve_scalar(tnet, construct_ring(desc))
        assert res.solved
        add(f"relay over {describe(desc)}", tnet, res.code)
    for desc in (PrimeField(2), PrimeField(3)):
        cnet = chain2_network()
        res = solve_scalar(cnet, construct_ring(desc))
        assert res.solved
        add(f"two-hop pair over {describe(desc)}", cnet, res.code)

    assert len(_CORPUS) >= 50
    return _CORPUS


def test_c09_transforms_preserve_solvedness():
    corpus = _corpus()
    counts = Counter()

    def check(kind, label, net, out):
        counts[kind] += 1
        assert verify_solution(net, out).solved, (kind, label)

    for label, net, code in corpus:
        module = code.module
        ring = module.ring
        edges = len(code.edge_coeffs)

        if ring.size <= 4096:  # quotients need the dense operation tables
            out, _ = quotient_by_annihilator(code)
            check("annihilator_quotient", label, net, out)

        if ring.size <= 300 and edges <= 25:
            check("product_code", label, net, product_code([code, code]))

        if ring.size <= 100:
            target, hom = simple_reduction(ring)
            out = hom_lift(code, hom, scalar_module(target))
            check("hom_lift", label, net, out)

        if module.vector_dim is None and ring.kind == "matrix":
            check("matrix_scalar_to_vector", label, net,
                  matrix_scalar_to_vector(code))

        if module.vector_dim is not None and module.vector_dim >= 2:
            check("vector_to_matrix_scalar", label, net,
                  vector_to_matrix_scalar(code))
        if module.vector_dim is not None and module.vector_dim <= 2 \
                and edges <= 16:
            check("dim_sum", label, net, dim_sum(code, code))

    # lifts along proper field embeddings, on top of the quotient lifts above
    for src, dst in ((PrimeField(2), GaloisField(2, 2)),
                     (PrimeField(2), GaloisField(2, 3)),
                     (PrimeField(3), GaloisField(3, 2))):
        a, b = construct_ring(src), construct_ring(dst)
        hom = find_homomorphisms(a, b)[0]
        net, code = _pair_forwarding_code(a)
        check("hom_lift", f"embed {describe(src)} -> {describe(dst)}",
              net, hom_lift(code, hom, scalar_module(b)))

    # and one product of codes over different rings
    net, ca = _pair_forwarding_code(construct_ring(PrimeField(2)))
    _, cb = _pair_forwarding_code(construct_ring(PrimeField(3)))
    check("product_code", "GF(2) x GF(3) mix", net, product_code([ca, cb]))

    assert set(counts) == {"annihilator_quotient", "product_code", "hom_lift",
                           "matrix_scalar_to_vector",
                           "vector_to_matrix_scalar", "dim_sum"}
    assert min(counts.values()) >= 2
    applied = sum(counts.values())
    _report(9, f"{len(corpus)} working codes; {applied} transform "
               "applications across all six families, every output verified "
               "working")


# ---------------------------------------------------------------------------
# 10. rank entropy against exhaustive distributions

def _random_scalar_code(net, ring, rng):
    """Random edge coefficients; decode rows are zero placeholders, since
    only the edge side feeds the entropy computations."""
    coeffs = {}
    for e in net.topo_edges():
        width = len(net.inputs(e.tail))
        coeffs[e] = tuple(rng.randrange(ring.size) for _ in range(width))
    decodings = {(r, m): (0,) * len(net.inputs(r))
                 for r in net.receivers for m in net.demands[r]}
    return LinearCode(scalar_module(ring), coeffs, decodings)


def _joint_distribution(net, ring, code, variables):
    """Exact outcome counts of the chosen variables over every assignment."""
    msgs = net.message_names
    counts = Counter()
    for combo in itertools.product(range(ring.size), repeat=len(msgs)):
        assignment = dict(zip(msgs, combo))
        values = bruteforce.edge_values(net, ring, code.edge_coeffs,
                                        assignment)
        counts[tuple(assignment[v] if isinstance(v, str) else values[v]
                     for v in variables)] += 1
    return counts


def _union(*variable_lists):
    return list(dict.fromkeys(v for vs in variable_lists for v in vs))


def test_c10_entropy_matches_enumeration_and_inequalities():
    rng = random.Random(0xA11CE)
    nets = (m_network(), pair_network(), chain2_network(), wire2_network(),
            starve_network())
    samples = []
    for p in (2, 3):
        ring = construct_ring(PrimeField(p))
        for net in nets:
            samples.extend((net, ring, _random_scalar_code(net, ring, rng))
                           for _ in range(25))
    assert len(samples) == 250

    # the rank figure equals the exhaustively computed distribution entropy:
    # the outcome distribution is uniform on exactly q^rank outcomes
    equalities = 0
    for net, ring, code in samples:
        pool = list(net.message_names) + list(net.topo_edges())
        for _ in range(2):
            chosen = rng.sample(pool, rng.randrange(1, min(4, len(pool)) + 1))
            rep = entropy_of(net, code, chosen)
            counts = _joint_distribution(net, ring, code, chosen)
            assert len(set(counts.values())) == 1
            assert ring.size ** rep.value == len(counts)
            equalities += 1
    assert equalities >= 500

    # conditioning can only shrink, joining can only grow, and the joint
    # sum bound, on a thousand random instances
    instances = 0
    for net, ring, code in samples:
        pool = list(net.message_names) + list(net.topo_edges())

        def pick():
            return rng.sample(pool, rng.randrange(1, len(pool) + 1))

        for _ in range(4):
            xs, ys = pick(), pick()
            hx = entropy_of(net, code, xs).value
            hy = entropy_of(net, code, ys).value
            hxy = entropy_of(net, code, _union(xs, ys)).value
            assert hxy - hy <= hx <= hxy <= hx + hy

            n = rng.choice((2, 3))
            groups = [pick() for _ in range(n)]
            joint = entropy_of(net, code, _union(xs, *groups)).value
            split = sum(entropy_of(net, code, _union(xs, g)).value
                        for g in groups)
            assert split >= (n - 1) * hx + joint
            instances += 1
    assert instances >= 1000

    # pinned entropies of the routing family: every relayed edge carries a
    # full message worth of symbols, and the first n-1 of them plus any one
    # component determine all but the forwarded remainder
    for n in (2, 3):
        for p in (2, 3):
            net, code = routing_code_dim_n(n, construct_ring(PrimeField(p)))
            for i in range(1, n + 1):
                w = [Edge(f"a{i}", f"b{i}", j) for j in range(n - 1)]
                w.append(Edge(f"a{i}", "z", 0))
                for e in w:
                    assert entropy_of(net, code, [e]).value == n
                for j in range(1, n + 1):
                    joint = entropy_of(net, code, w[:-1] + [f"x{i}_{j}"])
                    assert joint.value == n * n - n + 1
            total = entropy_of(net, code, list(net.message_names))
            assert total.value == n ** 3
    _report(10, f"rank entropy equals exhaustive entropy on {equalities} "
                f"variable sets; inequalities hold on {instances} random "
                "instances; routing-family entropies are exactly as pinned")


# ---------------------------------------------------------------------------
# 11. the two verification routes, and the two search configurations

def _zero_first_decode(code):
    decs = dict(code.decodings)
    key = sorted(decs)[0]
    decs[key] = tuple(0 for _ in decs[key])
    return LinearCode(code.module, dict(code.edge_coeffs), decs)


def test_c11_dual_route_checks_agree():
    compared = 0
    for label, net, code in _corpus():
        module = code.module
        states = module.group.size ** len(net.message_names)
        if states > 1 << 20 or module.ring.size * module.group.size > 1 << 20:
            continue
        assert verify_solution(net, code).solved, label
        assert semantic_verify(net, code).solved, label
        bad = _zero_first_decode(code)
        assert verify_solution(net, bad).solved \
            == semantic_verify(net, bad).solved is False, label
        compared += 1
    assert compared >= 40

    small = (PrimeField(2), PrimeField(3), IntegersMod(4), GaloisField(2, 2),
             Product((PrimeField(2), PrimeField(2))))
    agreed = 0
    for make_net in (trivial_network, wire2_network, pair_network,
                     chain_network, starve_network):
        net = make_net()
        for desc in small:
            ring = construct_ring(desc)
            want, _, _ = bruteforce.solve(net, ring)
            on = solve_scalar(net, ring)
            off = solve_scalar(net, ring,
                               SearchOptions(normalize_forwarding=False))
            assert on.status == off.status == want, \
                (make_net.__name__, describe(desc))
            for res in (on, off):
                if res.solved:
                    assert verify_solution(net, res.code).solved
            agreed += 1
    assert agreed == 25
    _report(11, f"algebraic and semantic verdicts agree on {compared} codes "
                "and their corrupted variants; search with and without "
                f"forwarding normalization matches enumeration on {agreed} "
                "small instances")


# ---------------------------------------------------------------------------
# 12. why an identity element is not negotiable

def test_c12_nonunital_coefficients_fail():
    report = nonunital_demo()
    assert report.values == (0, 2, 4, 6)
    assert report.has_identity is False
    assert [c for c, _ in report.collisions] == [0, 2, 4, 6]
    for coeff, (m1, m2) in report.collisions:
        assert m1 != m2
        assert (coeff * m1) % 8 == (coeff * m2) % 8
    _report(12, "even residues mod 8 have no identity and every relay "
                "coefficient merges two messages")

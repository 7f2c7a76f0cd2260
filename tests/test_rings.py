"""Ring constructors, axioms, radicals, and homomorphisms against
independent re-computations."""
import hashlib
import itertools
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netring import networks, rings, solver, transforms
from netring.rings import (GaloisField, IntegersMod, MatrixRing, PrimeField,
                           Product, TableRing, UpperTriangular,
                           construct_ring, describe)

SMALL_DESCRIPTORS = [
    PrimeField(2), PrimeField(3), PrimeField(5),
    IntegersMod(4), IntegersMod(8), IntegersMod(9),
    GaloisField(2, 2), GaloisField(2, 3), GaloisField(3, 2),
    MatrixRing(PrimeField(2), 2),
    UpperTriangular(PrimeField(2), 2), UpperTriangular(PrimeField(3), 2),
    Product((PrimeField(2), PrimeField(3))),
    Product((IntegersMod(4), PrimeField(2))),
]


@pytest.mark.parametrize("desc", SMALL_DESCRIPTORS, ids=describe)
def test_axioms_hold(desc):
    ring = construct_ring(desc)
    report = rings.verify_ring_axioms(ring)
    assert report.ok, report.witnesses
    assert ring.add(0, 0) == 0
    assert ring.mul(1, 1) == 1 and ring.one == 1


def test_axioms_catch_broken_table():
    # corrupt one associativity cell of Z_3's multiplication
    add = tuple(tuple((a + b) % 3 for b in range(3)) for a in range(3))
    mul = [[(a * b) % 3 for b in range(3)] for a in range(3)]
    mul[2][2] = 2  # 2*2 should be 1
    ring = construct_ring(TableRing(add, tuple(map(tuple, mul))))
    report = rings.verify_ring_axioms(ring)
    assert not report.ok
    assert not all(report.axioms.values())
    assert report.witnesses


def _laws_by_triples(ring):
    """Every axiom on every element, pair or triple: the n^3 oracle."""
    add, mul = ring.add_table(), ring.mul_table()
    n = ring.size
    idx = np.arange(n)
    a, b, c = np.ix_(idx, idx, idx)
    laws = {
        "add-commutative": (add == add.T).all(),
        "zero-identity": (add[0] == idx).all() and (add[:, 0] == idx).all(),
        "negation": (add == 0).any(axis=1).all(),
        "add-associative": (add[add[a, b], c] == add[a, add[b, c]]).all(),
        "mul-associative": (mul[mul[a, b], c] == mul[a, mul[b, c]]).all(),
        "left-distributive":
            (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all(),
        "right-distributive":
            (mul[add[a, b], c] == add[mul[a, c], mul[b, c]]).all(),
    }
    if ring.unital:
        laws["one-identity"] = ((mul[ring.one] == idx).all()
                                and (mul[:, ring.one] == idx).all())
    return {name: bool(ok) for name, ok in laws.items()}


def _fails_at(ring, name, w):
    """Whether the axiom called name fails at the witness w."""
    add, mul = ring.add_table(), ring.mul_table()
    if name == "add-commutative":
        return add[w[0], w[1]] != add[w[1], w[0]]
    if name == "zero-identity":
        return add[0, w[0]] != w[0] or add[w[0], 0] != w[0]
    if name == "negation":
        return not (add[w[0]] == 0).any()
    if name == "one-identity":
        return mul[ring.one, w[0]] != w[0] or mul[w[0], ring.one] != w[0]
    x, y, z = w
    return {"add-associative": add[add[x, y], z] != add[x, add[y, z]],
            "mul-associative": mul[mul[x, y], z] != mul[x, mul[y, z]],
            "left-distributive":
                mul[x, add[y, z]] != add[mul[x, y], mul[x, z]],
            "right-distributive":
                mul[add[x, y], z] != add[mul[x, z], mul[y, z]]}[name]


def _agrees_with_triples(ring):
    report, want = rings.verify_ring_axioms(ring), _laws_by_triples(ring)
    assert report.ok == all(want.values())
    assert set(report.axioms) == set(want)
    for name, ok in report.axioms.items():
        if name in report.unchecked:
            # not established, without a witness, and only when the laws
            # its check rests on are not established either
            assert not ok and name not in report.witnesses, name
            rests_on = (("left-distributive", "right-distributive")
                        if name == "mul-associative"
                        else ("add-associative",))
            assert not any(report.axioms[k] for k in rests_on), name
            continue
        assert ok == want[name], name
        if not ok:
            assert _fails_at(ring, name, report.witnesses[name]), name
    return report


def _table_copy(desc, unital=True):
    ring = construct_ring(desc)
    return TableRing(ring.add_table().tolist(), ring.mul_table().tolist(),
                     unital=unital)


@pytest.mark.parametrize("desc", solver.structured_catalog(16), ids=describe)
def test_axioms_by_generators_agree_with_every_triple(desc):
    assert _agrees_with_triples(construct_ring(_table_copy(desc))).ok


def test_axioms_by_generators_catch_single_entry_mutations():
    # one entry of one table changed, in a ring or in a rng with the same
    # tables (so that a changed identity still makes a table); tables
    # construction refuses are drawn again
    rng = random.Random(18)
    catalog = solver.structured_catalog(16)
    checked, failed, unchecked = 0, Counter(), Counter()
    while checked < 200:
        desc = _table_copy(rng.choice(catalog), unital=rng.random() < 0.5)
        tables = [list(map(list, desc.add)), list(map(list, desc.mul))]
        n = len(tables[0])
        table = rng.randrange(2)
        x, y = rng.randrange(n), rng.randrange(n)
        tables[table][x][y] = (tables[table][x][y] + rng.randrange(1, n)) % n
        try:
            ring = construct_ring(TableRing(*tables, unital=desc.unital))
        except ValueError:
            continue
        report = _agrees_with_triples(ring)
        failed.update(k for k, ok in report.axioms.items()
                      if not ok and k not in report.unchecked)
        unchecked.update(report.unchecked)
        checked += 1
    # a changed product breaks distributivity, which associativity's check
    # rests on; the test below reaches that check
    assert set(failed) >= {"add-associative", "left-distributive",
                           "right-distributive"}
    assert unchecked


def test_axioms_by_generators_on_every_bilinear_product():
    # GF(2)^2 with each of the 256 products fixed by e_i e_j (bilinear, so
    # both distributive laws hold): associativity is checked against the
    # generators, and some of these products are associative, some not
    assoc = Counter()
    for consts in itertools.product(range(4), repeat=4):
        def times(x, y):
            out = 0
            for i, j in itertools.product(range(2), repeat=2):
                if x >> i & 1 and y >> j & 1:
                    out ^= consts[2 * i + j]
            return out
        ring = construct_ring(TableRing(
            [[x ^ y for y in range(4)] for x in range(4)],
            [[times(x, y) for y in range(4)] for x in range(4)],
            unital=False))
        report = _agrees_with_triples(ring)
        assoc[report.axioms["mul-associative"]] += 1
    assert assoc[True] and assoc[False]


def test_associativity_by_the_mirror_argument():
    # GF(2)^2 with x y = M_y x for a 2 x 2 matrix M_y per y: right
    # distributive, and left distributive only when y -> M_y is additive;
    # without it, associativity is checked with its left factor in S
    rng = random.Random(18)
    assoc = Counter()
    while len(assoc) < 2 or min(assoc.values()) < 5:
        mats = [[rng.randrange(4) for _ in range(2)] for _ in range(4)]

        def times(x, y):
            out = 0
            for i in range(2):
                if x >> i & 1:
                    out ^= mats[y][i]
            return out
        ring = construct_ring(TableRing(
            [[x ^ y for y in range(4)] for x in range(4)],
            [[times(x, y) for y in range(4)] for x in range(4)],
            unital=False))
        report = _agrees_with_triples(ring)
        if not report.axioms["left-distributive"]:
            assert report.axioms["right-distributive"]
            assert not report.unchecked
            assoc[report.axioms["mul-associative"]] += 1


def test_a_1024_element_table_verifies_quickly():
    ring = construct_ring(_table_copy(GaloisField(2, 10)))
    start = time.perf_counter()
    assert rings.verify_ring_axioms(ring).ok
    assert time.perf_counter() - start < 2.0


Z2_ADD = ((0, 1), (1, 0))
Z2_MUL = ((0, 0), (0, 1))


@pytest.mark.parametrize("add,mul,one,message", [
    (((0, 1), (1,)), Z2_MUL, None, "tables must be square and of equal size"),
    (((0, 1), (1, 2)), Z2_MUL, None, "table entry out of range"),
    (((1, 1), (1, 1)), Z2_MUL, None, "tables have no additive identity"),
    (Z2_ADD, ((0, 0), (0, 0)), None, "tables have no multiplicative identity"),
    (Z2_ADD, Z2_MUL, 0, "position 0 is not a multiplicative identity"),
    (Z2_ADD, ((0, 1), (1, 1)), None,
     "additive and multiplicative identities coincide"),
    (((0, 1), (1, 1)), Z2_MUL, None, "some element has no additive inverse"),
], ids=["jagged", "range", "no-zero", "no-identity", "wrong-one",
        "one-is-zero", "no-negative"])
def test_table_validation_messages(add, mul, one, message):
    with pytest.raises(ValueError, match=message):
        construct_ring(TableRing(add, mul, one=one))


def test_one_element_ring():
    ring = construct_ring(TableRing([[0]], [[0]]))
    assert (ring.size, ring.one, ring.input_index_map) == (1, 0, (0,))
    assert rings.verify_ring_axioms(ring).ok
    z4 = construct_ring(IntegersMod(4))
    q, hom = rings.quotient(z4, rings.two_sided_ideals(z4)[-1])
    assert q.size == 1 and q.one == 0 and hom.mapping == (0, 0, 0, 0)
    assert q.add_table().tolist() == q.mul_table().tolist() == [[0]]


def test_zero_and_one_pinned_everywhere():
    for desc in SMALL_DESCRIPTORS:
        ring = construct_ring(desc)
        for x in range(ring.size):
            assert ring.add(0, x) == x
            assert ring.mul(1, x) == x and ring.mul(x, 1) == x


def test_table_build_memory_stays_near_the_tables():
    # the two 1024 x 1024 int64 tables take 16.8 MB; temporaries are
    # built a block of rows at a time
    ring = construct_ring(GaloisField(2, 10))
    tracemalloc.start()
    try:
        ring.add_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 10 ** 6


def test_accessors_reject_the_wrong_kind_or_shape():
    gf4 = construct_ring(GaloisField(2, 2))
    ut = construct_ring(UpperTriangular(PrimeField(2), 2))
    prod = construct_ring(Product((PrimeField(2), PrimeField(3))))
    for call in (lambda: gf4.mat_entries(1),
                 lambda: prod.mat_from_entries(((1,),)),
                 lambda: ut.field_coeffs(1), lambda: ut.prod_parts(1),
                 lambda: gf4.prod_from_parts((1, 1)),
                 lambda: prod.field_from_coeffs((1,)),
                 lambda: construct_ring(PrimeField(5)).coords(3)):
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError):
        ut.mat_from_entries(((1, 0), (1, 1)))
    with pytest.raises(ValueError):
        prod.prod_from_parts((1, 1, 1))
    assert ut.mat_from_entries(((1, 1), (0, 1))) == ut.from_coords((1, 1, 1))
    assert gf4.field_from_coeffs((3, 5)) == gf4.field_from_coeffs((1, 1))


# --- irreducible moduli, rebuilt from scratch ------------------------------

def _poly_mod(num, den, p):
    num = list(num)
    dk = len(den) - 1
    while len(num) - 1 >= dk and any(num):
        if num[-1] == 0:
            num.pop()
            continue
        shift = len(num) - 1 - dk
        lead = num[-1]  # den is monic
        for i, c in enumerate(den):
            num[shift + i] = (num[shift + i] - lead * c) % p
        num.pop()
    return num


def _is_irreducible(poly, p):
    k = len(poly) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            if not any(_poly_mod(poly, div, p)):
                return False
    return True


def _least_irreducible(p, k):
    n = 0
    while True:
        tail, t = [], n
        for _ in range(k):
            tail.append(t % p)
            t //= p
        assert not t, f"no irreducible of degree {k} over GF({p})?"
        poly = tuple(tail) + (1,)
        if _is_irreducible(poly, p):
            return poly
        n += 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_builtin_moduli_are_least_irreducible(p):
    for k in range(2, 7):
        assert rings.IRREDUCIBLE[(p, k)] == _least_irreducible(p, k)


def test_modulus_choice_does_not_change_verdicts():
    # both irreducible monic quadratics x^2+1 and x^2+x+2 over GF(3)
    net = networks.choose_two_network(4)
    verdicts = []
    for poly in (None, (2, 1, 1)):
        field = construct_ring(GaloisField(3, 2, poly))
        verdicts.append(solver.solve_scalar(net, field).status)
    assert verdicts[0] == verdicts[1] == "solved"


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        construct_ring(GaloisField(2, 2, (1, 0, 1)))  # x^2+1 = (x+1)^2


def test_only_a_callers_modulus_is_checked(monkeypatch):
    # a reducible modulus from the caller still fails the same way
    with pytest.raises(ValueError, match=r"modulus \(1, 0, 1\) is reducible"):
        construct_ring(GaloisField(2, 2, (1, 0, 1)))
    # moduli outside the built-in table come from a search that tests each
    # candidate, so they are irreducible by construction too
    for p, k in ((2, 7), (11, 2), (13, 3)):
        assert (p, k) not in rings.IRREDUCIBLE
        assert _is_irreducible(rings.default_modulus(p, k), p)
    # the built-in moduli skip the check
    calls = []
    monkeypatch.setattr(rings, "poly_is_irreducible",
                        lambda poly, p: calls.append(poly) or True)
    construct_ring(GaloisField(2, 4))
    assert calls == []
    construct_ring(GaloisField(3, 2, (2, 1, 1)))
    assert calls == [(2, 1, 1)]


# --- radical against an independent Jacobson computation -------------------

def _units(ring):
    out = set()
    for u in range(ring.size):
        for v in range(ring.size):
            if ring.mul(u, v) == 1 and ring.mul(v, u) == 1:
                out.add(u)
                break
    return out


def _jacobson(ring):
    """x is in the radical iff 1 - r*x is a unit for every r."""
    units = _units(ring)
    out = []
    for x in range(ring.size):
        if all(ring.add(1, ring.neg(ring.mul(r, x))) in units
               for r in range(ring.size)):
            out.append(x)
    return tuple(out)


@pytest.mark.parametrize("desc", [
    IntegersMod(4), IntegersMod(8), IntegersMod(12),
    GaloisField(2, 3), MatrixRing(PrimeField(2), 2),
    UpperTriangular(PrimeField(2), 2), UpperTriangular(PrimeField(3), 2),
    Product((IntegersMod(4), PrimeField(3))),
], ids=describe)
def test_radical_matches_jacobson_oracle(desc):
    ring = construct_ring(desc)
    assert tuple(sorted(rings.radical(ring).elements)) == _jacobson(ring)


def test_quotient_by_radical_is_semisimple():
    ring = construct_ring(IntegersMod(12))
    rad = rings.radical(ring)
    assert sorted(rad.elements) == [0, 6]
    q, hom = rings.quotient(ring, rad)
    assert q.size == 6
    assert rings.semisimple_decompose(q) == [(1, 2), (1, 3)]
    assert hom.mapping[0] == 0 and hom.mapping[ring.one] == q.one


def test_derived_rings_are_pinned():
    """Every quotient by a proper two-sided ideal, with its surjection, and
    every prime-power block of the catalogue rings to 32 elements: tables,
    descriptors and index maps, pinned by one digest."""
    h = hashlib.sha256()
    count = 0
    for desc in solver.structured_catalog(32):
        ring = construct_ring(desc)
        derived = [rings.quotient(ring, ideal)
                   for ideal in rings.two_sided_ideals(ring)
                   if len(ideal) < ring.size]
        derived += [(block, None) for block in rings.prime_power_decompose(ring)]
        for q, hom in derived:
            h.update(repr((
                q.descriptor, q.size, q.one, q.unital, q.kind,
                q.input_index_map, q.add_table().tolist(),
                q.mul_table().tolist(), q.neg_table().tolist(),
                hom.mapping if hom else None)).encode())
            count += 1
    assert (count, h.hexdigest()[:16]) == (621, "e978b9d4a16cfd1e")


# --- homomorphisms against exhaustive map enumeration ----------------------

def _all_homs(r, s):
    found = []
    for mapping in itertools.product(range(s.size), repeat=r.size):
        if mapping[0] != 0 or mapping[1] != 1:
            continue
        if all(mapping[r.add(a, b)] == s.add(mapping[a], mapping[b])
               and mapping[r.mul(a, b)] == s.mul(mapping[a], mapping[b])
               for a in range(r.size) for b in range(r.size)):
            found.append(mapping)
    return sorted(found)


@pytest.mark.parametrize("src,dst", [
    (IntegersMod(4), IntegersMod(4)),
    (IntegersMod(4), GaloisField(2, 2)),
    (GaloisField(2, 2), GaloisField(2, 2)),
    (GaloisField(2, 2), IntegersMod(4)),
    (PrimeField(3), PrimeField(3)),
    (Product((PrimeField(2), PrimeField(2))), PrimeField(2)),
    (Product((PrimeField(2), PrimeField(2))),
     Product((PrimeField(2), PrimeField(2)))),
    (UpperTriangular(PrimeField(2), 2), PrimeField(2)),
])
def test_hom_search_matches_exhaustive(src, dst):
    r, s = construct_ring(src), construct_ring(dst)
    got = sorted(h.mapping for h in rings.find_homomorphisms(r, s))
    assert got == _all_homs(r, s)


def _hom_digest(pairs):
    """sha256 prefix of every find_homomorphisms list and find_isomorphism
    map over the (domain, codomain) pairs, in order."""
    h = hashlib.sha256()
    for a, b in pairs:
        homs = [f.mapping for f in rings.find_homomorphisms(a, b)]
        iso = rings.find_isomorphism(a, b)
        h.update(f"{homs}|{iso.mapping if iso else None}\n".encode())
    return h.hexdigest()[:16]


# per domain, over every codomain in structured_catalog(8), in order
CATALOG_HOM_DIGESTS = {
    "GF(2)": "07fce8ac9ec23a53",
    "GF(3)": "56ac03967e591898",
    "Z_4": "c5aaeb97663489b7",
    "GF(2^2)": "77814669fb0739fe",
    "GF(2) x GF(2)": "73430c4a2c4ff2ab",
    "GF(5)": "d5fc499dc3e31b51",
    "GF(2) x GF(3)": "13eea60a7ea4431a",
    "GF(7)": "4b1dcb366d2830cb",
    "Z_8": "4c817ea7d04f8404",
    "GF(2^3)": "18a1a43162ceeb66",
    "UT_2(GF(2))": "85241cabf92f65e4",
    "GF(2) x GF(2) x GF(2)": "874b1d3a96517a93",
    "GF(2) x Z_4": "ab798b8d703d4f34",
    "GF(2) x GF(2^2)": "bb6b89614b4630b3",
}


def test_hom_search_outputs_are_pinned():
    # the lists, and the map find_isomorphism picks, are fixed by the search
    # order; pruning may only cut branches that hold no homomorphism
    catalog = [construct_ring(d) for d in solver.structured_catalog(8)]
    assert all(r.unital for r in catalog)
    got = {describe(r.descriptor): _hom_digest((r, b) for b in catalog)
           for r in catalog}
    assert got == CATALOG_HOM_DIGESTS
    for src, dst, want in (
            (GaloisField(2, 2), GaloisField(2, 4), "74e3f339e33e1c04"),
            (GaloisField(2, 4), GaloisField(2, 4), "b7849243263190db"),
            (MatrixRing(PrimeField(2), 2), MatrixRing(PrimeField(2), 2),
             "b1d132844dfe998c")):
        pair = (construct_ring(src), construct_ring(dst))
        assert _hom_digest([pair]) == want, (describe(src), describe(dst))


def test_homs_respect_identity_and_compose(gf2, gf4):
    homs = rings.find_homomorphisms(gf2, gf4)
    assert len(homs) == 1
    (h,) = homs
    assert h.mapping == (0, 1)
    frob = rings.find_homomorphisms(gf4, gf4)
    assert len(frob) == 2  # identity and squaring
    assert any(f.mapping == tuple(range(4)) for f in frob)


def test_isomorphism_distinguishes_order_four_rings():
    z4 = construct_ring(IntegersMod(4))
    f4 = construct_ring(GaloisField(2, 2))
    klein = construct_ring(Product((PrimeField(2), PrimeField(2))))
    assert rings.find_isomorphism(z4, f4) is None
    assert rings.find_isomorphism(f4, klein) is None
    add = tuple(tuple(a ^ b for b in range(4)) for a in range(4))
    f4b = construct_ring(TableRing(add, f4.mul_table().tolist()))
    iso = rings.find_isomorphism(f4, f4b)
    assert iso is not None and iso.mapping[0] == 0


# --- catalog and decomposition ---------------------------------------------

def test_semisimple_catalog_counts_and_entries():
    counts = [len(rings.semisimple_catalog(2, k)) for k in range(1, 7)]
    assert counts == [1, 2, 3, 6, 8, 13]
    names = [describe(d) for d in rings.semisimple_catalog(2, 2)]
    assert names == ["GF(2^2)", "GF(2) x GF(2)"]
    names4 = [describe(d) for d in rings.semisimple_catalog(2, 4)]
    assert "M_2(GF(2))" in names4 and "GF(2^4)" in names4
    assert len(set(names4)) == 6


def test_simple_block_matches_semisimple_decompose():
    """Every simple quotient of the catalogue rings to 32 elements, and a
    table copy of each simple ring, gets the block semisimple_decompose
    finds; rings that are not simple are refused."""
    seen = 0
    for desc in solver.structured_catalog(32):
        ring = construct_ring(desc)
        for ideal in rings.maximal_proper(rings.two_sided_ideals(ring)):
            q = rings.quotient(ring, ideal)[0]
            assert [rings.simple_block(q)] == rings.semisimple_decompose(q)
            seen += 1
    assert seen > 50
    for desc in (MatrixRing(PrimeField(2), 2), GaloisField(2, 4),
                 MatrixRing(PrimeField(3), 2), PrimeField(7)):
        ring = construct_ring(desc)
        copy = construct_ring(TableRing(ring.add_table().tolist(),
                                        ring.mul_table().tolist()))
        assert rings.simple_block(copy) == rings.semisimple_decompose(ring)[0]
    for desc in (IntegersMod(4), Product((PrimeField(2), PrimeField(2))),
                 UpperTriangular(PrimeField(2), 2), IntegersMod(6)):
        with pytest.raises(ValueError, match="not a simple ring"):
            rings.simple_block(construct_ring(desc))


def test_semisimple_decompose_blocks():
    assert rings.semisimple_decompose(
        construct_ring(MatrixRing(PrimeField(2), 2))) == [(2, 2)]
    assert rings.semisimple_decompose(
        construct_ring(GaloisField(2, 2))) == [(1, 4)]
    assert rings.semisimple_decompose(
        construct_ring(IntegersMod(6))) == [(1, 2), (1, 3)]


def test_ring_structure_is_pinned():
    """radical, semisimple_decompose and simple_reduction of every unital
    ring in the structured catalogue to 64 elements and the semisimple
    catalogues of 2^1..2^6 and 3^1..3^3 elements, pinned by one digest."""
    descs = list(solver.structured_catalog(64))
    descs += [d for k in range(1, 7) for d in rings.semisimple_catalog(2, k)]
    descs += [d for k in range(1, 4) for d in rings.semisimple_catalog(3, k)]
    h = hashlib.sha256()
    count = 0
    for desc in descs:
        ring = construct_ring(desc)
        if not ring.unital:
            continue
        h.update(repr((describe(desc), rings.radical(ring).elements,
                       rings.semisimple_decompose(ring),
                       transforms.simple_reduction(ring)[1].mapping)).encode())
        count += 1
    assert count == 247
    assert h.hexdigest() == ("d881e30aba995eff3e2f7c54bdcd5b2b"
                             "fc73548cb5683ae7a033b78685654dc5")


def test_structure_needs_no_prime_power_split_or_left_ideals(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ring structure left the maximal ideals")
    for name in ("prime_power_decompose", "left_ideals"):
        monkeypatch.setattr(rings, name, refuse)
    ring = construct_ring(Product((IntegersMod(4),
                                   UpperTriangular(PrimeField(3), 2))))
    assert tuple(rings.radical(ring).elements) == _jacobson(ring)
    assert rings.semisimple_decompose(ring) == [(1, 2), (1, 3), (1, 3)]


def test_decompose_past_the_isomorphism_cap():
    # only the simple quotients, none of them past HOM_CAP, meet the
    # isomorphism search
    for desc, blocks in (
            (Product((MatrixRing(PrimeField(2), 2),) + (PrimeField(2),) * 5),
             [(2, 2)] + [(1, 2)] * 5),
            (Product((GaloisField(2, 4), GaloisField(2, 4), PrimeField(2))),
             [(1, 16), (1, 16), (1, 2)])):
        ring = construct_ring(desc)
        assert ring.size > rings.HOM_CAP
        assert rings.semisimple_decompose(ring) == blocks


def test_named_simple_rings_are_read_off(monkeypatch):
    # a field or a matrix ring over one is simple and names its own block,
    # so neither the ideal lattice nor an isomorphism search is needed,
    # and HOM_CAP stops no decomposition (GF(2^9) and M_2(GF(2^3)) are past it)
    def refuse(*args, **kwargs):
        raise AssertionError("structure of a named simple ring was searched")
    for name in ("two_sided_ideals", "find_isomorphism"):
        monkeypatch.setattr(rings, name, refuse)
    for desc, block in ((GaloisField(2, 9), (1, 512)),
                        (GaloisField(3, 5), (1, 243)),
                        (MatrixRing(GaloisField(2, 3), 2), (2, 8))):
        ring = construct_ring(desc)
        assert rings.radical(ring).elements == (0,)
        assert rings.semisimple_decompose(ring) == [block]
        assert rings.simple_block(ring) == block


def test_one_element_ring_has_no_simple_quotient():
    ring = construct_ring(TableRing([[0]], [[0]]))
    assert rings.radical(ring).elements == (0,)
    assert rings.semisimple_decompose(ring) == []
    same, hom = transforms.simple_reduction(ring)
    assert same is ring and hom.mapping == (0,)


@pytest.mark.parametrize("add, mul", [
    ([[0, 1], [1, 0]], [[0, 0], [0, 0]]),      # zero multiplication on Z_2
    ([[(a + b) % 4 for b in range(4)] for a in range(4)],
     [[2 * a * b % 4 for b in range(4)] for a in range(4)]),   # 2Z/8Z
], ids=["zero-product", "2Z/8Z"])
def test_structure_of_a_rng_is_refused(add, mul):
    # both rngs are nil, so no maximal-ideal argument reaches their radical
    rng = construct_ring(TableRing(add, mul, unital=False))
    for query in (rings.radical, rings.semisimple_decompose,
                  transforms.simple_reduction):
        with pytest.raises(ValueError, match="rng"):
            query(rng)


def test_table_ring_reindexing():
    # Z_3 written with the identity parked at position 2
    order = [1, 2, 0]  # table position -> residue
    add = tuple(tuple(order.index((order[a] + order[b]) % 3)
                      for b in range(3)) for a in range(3))
    mul = tuple(tuple(order.index((order[a] * order[b]) % 3)
                      for b in range(3)) for a in range(3))
    ring = construct_ring(TableRing(add, mul))
    assert ring.add(0, 0) == 0 and ring.mul(1, 1) == 1
    for x in range(3):
        assert ring.mul(1, x) == x
    assert rings.find_isomorphism(ring, construct_ring(PrimeField(3)))


def test_descriptor_json_round_trip():
    for desc in SMALL_DESCRIPTORS:
        data = rings.descriptor_to_json(desc)
        back = rings.descriptor_from_json(data)
        assert construct_ring(back).size == construct_ring(desc).size
        assert describe(back) == describe(desc)


# --- property check over the table paths -----------------------------------

@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_DESCRIPTORS), st.data())
def test_ring_identities_random_triples(desc, data):
    ring = construct_ring(desc)
    a = data.draw(st.integers(0, ring.size - 1))
    b = data.draw(st.integers(0, ring.size - 1))
    c = data.draw(st.integers(0, ring.size - 1))
    assert ring.add(a, b) == ring.add(b, a)
    assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b),
                                                   ring.mul(a, c))
    assert ring.add(a, ring.neg(a)) == 0

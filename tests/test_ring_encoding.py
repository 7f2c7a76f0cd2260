"""Element indexing of the structured ring kinds, pinned.

The digests below were recorded from the table-per-kind implementation that
preceded the shared coordinate codec; they pin every dense table, the
identity's index and every structure-accessor result, so a change to how
elements are encoded or how tables are built cannot slip through.  The
second half checks that the scalar operations (used before any table
exists) agree with the tables for every ring kind.
"""
import hashlib
import json
import random

import numpy as np
import pytest

from netring.rings import (GaloisField, IntegersMod, MatrixRing, PrimeField,
                           Product, UpperTriangular, construct_ring)

GF2, GF3, GF4 = PrimeField(2), PrimeField(3), GaloisField(2, 2)

RINGS = {
    "GF(2^4)": GaloisField(2, 4),
    "GF(3^2)": GaloisField(3, 2),
    "GF(5^2)": GaloisField(5, 2),
    "M_2(GF(2))": MatrixRing(GF2, 2),
    "M_2(GF(3))": MatrixRing(GF3, 2),
    "M_2(GF(2^2))": MatrixRing(GF4, 2),
    "M_2(Z_4)": MatrixRing(IntegersMod(4), 2),
    "M_3(GF(2))": MatrixRing(GF2, 3),
    "UT_2(GF(2))": UpperTriangular(GF2, 2),
    "UT_2(GF(3))": UpperTriangular(GF3, 2),
    "UT_3(GF(2))": UpperTriangular(GF2, 3),
    "UT_2(GF(2^2))": UpperTriangular(GF4, 2),
    "GF(2)xGF(3)": Product((GF2, GF3)),
    "Z_4xGF(2)": Product((IntegersMod(4), GF2)),
    "GF(2^2)xGF(2)": Product((GF4, GF2)),
    "GF(2)xM_2(GF(2))": Product((GF2, MatrixRing(GF2, 2))),
}


def _sha(obj) -> str:
    if isinstance(obj, np.ndarray):
        payload = np.ascontiguousarray(obj, dtype=np.int64).tobytes()
    else:
        payload = json.dumps(obj, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def encoding_digests(ring) -> dict:
    """Digests of the tables, the identity and every accessor result."""
    out = {"one": ring.one}
    elements = range(ring.size)
    if ring.kind == "galois_field":
        out["field_coeffs"] = _sha([ring.field_coeffs(i) for i in elements])
        out["modulus"] = list(ring.modulus)
    elif ring.kind in ("matrix", "upper_triangular"):
        out["mat_entries"] = _sha([ring.mat_entries(i) for i in elements])
        k = ring.k
        out["matrix_units"] = [ring.matrix_unit(r, c) for r in range(k)
                               for c in range(k)
                               if ring.kind == "matrix" or r <= c]
    elif ring.kind == "product":
        out["prod_parts"] = _sha([ring.prod_parts(i) for i in elements])
    out["add"] = _sha(ring.add_table())
    out["mul"] = _sha(ring.mul_table())
    out["neg"] = _sha(ring.neg_table())
    return out


PINNED = {
    "GF(2)xGF(3)": {
        "one": 1,
        "prod_parts": "ceaced51181c35d9",
        "add": "908c20196297d027",
        "mul": "99e2ec2aadc1243d",
        "neg": "eeac188a4e3f300a",
    },
    "GF(2)xM_2(GF(2))": {
        "one": 1,
        "prod_parts": "49bedcfcc5f30d92",
        "add": "aa65264b54ca80d7",
        "mul": "fe91b94382a4ae3e",
        "neg": "bcc9bcfc670935c6",
    },
    "GF(2^2)xGF(2)": {
        "one": 1,
        "prod_parts": "fc14e6a5ac4ffa1c",
        "add": "8cc5f25d9f3dc631",
        "mul": "90605a9c8143d3a3",
        "neg": "fece8d601cd4c902",
    },
    "GF(2^4)": {
        "one": 1,
        "field_coeffs": "6e0ae22b31d9b366",
        "modulus": [1, 1, 0, 0, 1],
        "add": "c23e73c80b6902c1",
        "mul": "b046715b8028e859",
        "neg": "f23d672bb9b341f9",
    },
    "GF(3^2)": {
        "one": 1,
        "field_coeffs": "8b44725da774da2f",
        "modulus": [1, 0, 1],
        "add": "86ac843ff1f14f5e",
        "mul": "570c990a2f2314c2",
        "neg": "0b567cf282f27d20",
    },
    "GF(5^2)": {
        "one": 1,
        "field_coeffs": "fd84644b2b328d97",
        "modulus": [2, 0, 1],
        "add": "35ca85530c66b2ee",
        "mul": "03a46c7d186459b4",
        "neg": "bb18c51471126f25",
    },
    "M_2(GF(2))": {
        "one": 1,
        "mat_entries": "885b0704d4ffa03e",
        "matrix_units": [9, 5, 3, 2],
        "add": "2c181a71c3e5a06a",
        "mul": "e1bc9ea6f376956c",
        "neg": "f23d672bb9b341f9",
    },
    "M_2(GF(2^2))": {
        "one": 1,
        "mat_entries": "b3a6a0f45c2f962a",
        "matrix_units": [65, 17, 5, 2],
        "add": "b58bc77e062f281d",
        "mul": "6a17c0aae714df48",
        "neg": "bbd330b12e8159e1",
    },
    "M_2(GF(3))": {
        "one": 1,
        "mat_entries": "4ecd33c6f80a50ae",
        "matrix_units": [28, 10, 4, 2],
        "add": "4018f6e163b9c065",
        "mul": "a0da06af55449375",
        "neg": "2ac57afb37f91dec",
    },
    "M_2(Z_4)": {
        "one": 1,
        "mat_entries": "b3a6a0f45c2f962a",
        "matrix_units": [65, 17, 5, 2],
        "add": "fc7aee7c6cec5aa0",
        "mul": "1be7fbd68d40686f",
        "neg": "9c13c8a31071b71e",
    },
    "M_3(GF(2))": {
        "one": 1,
        "mat_entries": "7d60fd75f91c0b60",
        "matrix_units": [257, 129, 65, 33, 17, 9, 5, 3, 2],
        "add": "e4741ca17ffa3dcf",
        "mul": "f0c0cc3fb9350d2a",
        "neg": "5738153ec97595b1",
    },
    "UT_2(GF(2))": {
        "one": 1,
        "mat_entries": "97cd286e18fb8bac",
        "matrix_units": [5, 3, 2],
        "add": "821121dc5a8fb684",
        "mul": "5a49b7a8e49ceddb",
        "neg": "fece8d601cd4c902",
    },
    "UT_2(GF(2^2))": {
        "one": 1,
        "mat_entries": "27ccbc3d9d7642bf",
        "matrix_units": [17, 5, 2],
        "add": "042f7d689880dc9b",
        "mul": "3be048ea8a77efda",
        "neg": "7a4644928f3a08db",
    },
    "UT_2(GF(3))": {
        "one": 1,
        "mat_entries": "685d5c524aa32e64",
        "matrix_units": [10, 4, 2],
        "add": "94b607973179e2f3",
        "mul": "9ec1b9b863536602",
        "neg": "0240deb048d4f42a",
    },
    "UT_3(GF(2))": {
        "one": 1,
        "mat_entries": "c36e2b421bae3fd7",
        "matrix_units": [33, 17, 9, 5, 3, 2],
        "add": "bef1a509d56a9212",
        "mul": "a0f27ec1f7af35fa",
        "neg": "7a4644928f3a08db",
    },
    "Z_4xGF(2)": {
        "one": 1,
        "prod_parts": "fc14e6a5ac4ffa1c",
        "add": "076ad3709ae6ab50",
        "mul": "9d5f0bb88f603b49",
        "neg": "d5da19ff3eebf02b",
    },
}


@pytest.mark.parametrize("name", sorted(RINGS))
def test_encoding_is_pinned(name):
    ring = construct_ring(RINGS[name])
    assert encoding_digests(ring) == PINNED[name]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_accessors_invert(name):
    ring = construct_ring(RINGS[name])
    for i in range(ring.size):
        if ring.kind == "galois_field":
            assert ring.field_from_coeffs(ring.field_coeffs(i)) == i
        elif ring.kind == "product":
            assert ring.prod_from_parts(ring.prod_parts(i)) == i
        else:
            assert ring.mat_from_entries(ring.mat_entries(i)) == i


EXHAUSTIVE_UP_TO = 81
SAMPLE_PAIRS = 3000


def _pairs(n: int):
    if n <= EXHAUSTIVE_UP_TO:
        return [(a, b) for a in range(n) for b in range(n)]
    rnd = random.Random(n)
    return [(rnd.randrange(n), rnd.randrange(n)) for _ in range(SAMPLE_PAIRS)]


CROSS_CHECK = dict(RINGS, **{
    "GF(7)": PrimeField(7),
    "Z_9": IntegersMod(9),
    "M_1(GF(3))": MatrixRing(GF3, 1),
    "UT_1(GF(2^2))": UpperTriangular(GF4, 1),
    "Z_4xM_2(GF(2))": Product((IntegersMod(4), MatrixRing(GF2, 2))),
    "GF(2)xGF(2)xGF(3)": Product((GF2, GF2, GF3)),
})


@pytest.mark.parametrize("name", sorted(CROSS_CHECK))
def test_scalar_operations_agree_with_tables(name):
    ring = construct_ring(CROSS_CHECK[name])
    pairs = _pairs(ring.size)
    # the scalar path runs first, while no table exists yet
    scalar_add = [ring.add(a, b) for a, b in pairs]
    scalar_mul = [ring.mul(a, b) for a, b in pairs]
    scalar_neg = [ring.neg(a) for a in range(ring.size)]
    add, mul, neg = ring.add_table(), ring.mul_table(), ring.neg_table()
    assert scalar_add == [int(add[a, b]) for a, b in pairs]
    assert scalar_mul == [int(mul[a, b]) for a, b in pairs]
    assert scalar_neg == neg.tolist()

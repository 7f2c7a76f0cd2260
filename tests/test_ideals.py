"""Ideal and submodule lattices against brute force and pinned digests.

The oracle enumerates every subset holding 0 as a bitmask and keeps those
closed under addition and the relevant multiplications, using only the
scalar ring, group and action operations.  The digests pin the exact
lattices of larger rings and modules, their order included.
"""
import hashlib

import pytest

from netring import rings
from netring.modules import (construct_module, additive_group, scalar_module,
                             submodules, vector_module)
from netring.rings import (GaloisField, IntegersMod, MatrixRing, PrimeField,
                           Product, TableRing, UpperTriangular,
                           construct_ring, describe)


def _even_residues_mod_8():
    """The rng of nonunital_demo: 0, 2, 4, 6 under arithmetic mod 8."""
    values = (0, 2, 4, 6)
    pos = {v: i for i, v in enumerate(values)}
    add = tuple(tuple(pos[(a + b) % 8] for b in values) for a in values)
    mul = tuple(tuple(pos[(a * b) % 8] for b in values) for a in values)
    return construct_ring(TableRing(add, mul, unital=False))


SMALL = [construct_ring(d) for d in (
    IntegersMod(4), IntegersMod(8), IntegersMod(9),
    Product((PrimeField(2),) * 3), Product((PrimeField(2), PrimeField(3))),
    UpperTriangular(PrimeField(2), 2))] + [_even_residues_mod_8()]


def _closed_subsets(n, add, actions):
    """Every subset of 0..n-1 holding 0, closed under add(x, y) and under
    act(r, x) for each (act, scalars) in actions; sorted by (size, elements)."""
    out = []
    for bits in range(1 << (n - 1)):
        s = (0,) + tuple(x for x in range(1, n) if bits >> (x - 1) & 1)
        members = set(s)
        if any(add(x, y) not in members for x in s for y in s):
            continue
        if any(act(r, x) not in members
               for act, scalars in actions for r in scalars for x in s):
            continue
        out.append(s)
    out.sort(key=lambda t: (len(t), t))
    return out


@pytest.mark.parametrize("ring", SMALL, ids=lambda r: describe(r.descriptor))
def test_ideals_match_enumeration(ring):
    elems = range(ring.size)
    left = (ring.mul, elems)
    right = (lambda r, x: ring.mul(x, r), elems)
    assert ([i.elements for i in rings.left_ideals(ring)]
            == _closed_subsets(ring.size, ring.add, [left]))
    assert ([i.elements for i in rings.two_sided_ideals(ring)]
            == _closed_subsets(ring.size, ring.add, [left, right]))


@pytest.mark.parametrize("mod", [
    scalar_module(construct_ring(IntegersMod(4))),
    vector_module(construct_ring(PrimeField(2)), 2),
    # GF(2) acting on GF(2)^3 by scalars: every subspace is a submodule
    construct_module(construct_ring(PrimeField(2)),
                     additive_group(construct_ring(Product((PrimeField(2),) * 3))),
                     lambda r, g: g if r else 0),
], ids=["Z_4", "GF(2)^2 over M_2(GF(2))", "GF(2)^3 over GF(2)"])
def test_submodules_match_enumeration(mod):
    group = mod.group
    assert submodules(mod) == _closed_subsets(
        group.size, group.add, [(mod.act, range(mod.ring.size))])


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:12]


# (left count, two-sided count, left digest, two-sided digest)
PINNED_RINGS = [
    (UpperTriangular(PrimeField(2), 3), 40, 14, "cfd7355dc74f", "81c93e74d625"),
    (MatrixRing(PrimeField(3), 2), 6, 2, "66a2cb051a64", "1b50f81de5c0"),
    (Product((PrimeField(2),) * 5), 32, 32, "b9350d3f99b0", "b9350d3f99b0"),
    (Product((IntegersMod(4),) * 3), 27, 27, "3e9e4b762f57", "3e9e4b762f57"),
    (Product((PrimeField(2), MatrixRing(PrimeField(2), 2))), 10, 4,
     "a251dff1b8f6", "d0cb1a6bd542"),
]


@pytest.mark.parametrize("desc,n_left,n_two,left,two", PINNED_RINGS,
                         ids=[describe(p[0]) for p in PINNED_RINGS])
def test_pinned_ideal_lattices(desc, n_left, n_two, left, two):
    ring = construct_ring(desc)
    lefts = [i.elements for i in rings.left_ideals(ring)]
    twos = [i.elements for i in rings.two_sided_ideals(ring)]
    assert (len(lefts), len(twos)) == (n_left, n_two)
    assert (_digest(lefts), _digest(twos)) == (left, two)


@pytest.mark.parametrize("desc,k,count,digest", [
    (GaloisField(2, 2), 2, 2, "92ed83e1f1af"),
    (PrimeField(2), 3, 2, "1a487e7d447a"),
])
def test_pinned_submodules(desc, k, count, digest):
    subs = submodules(vector_module(construct_ring(desc), k))
    assert (len(subs), _digest(subs)) == (count, digest)


def test_quotient_rejects_a_one_sided_ideal():
    ut = construct_ring(UpperTriangular(PrimeField(2), 2))
    two_sided = {i.elements for i in rings.two_sided_ideals(ut)}
    one_sided = [i for i in rings.left_ideals(ut)
                 if i.elements not in two_sided]
    assert one_sided
    for ideal in one_sided:
        with pytest.raises(ValueError, match="two-sided"):
            rings.quotient(ut, ideal)

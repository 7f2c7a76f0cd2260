"""Module construction, faithfulness, and submodule lattices."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netring import modules, rings
from netring.modules import (ModuleAxiomError, annihilator_quotient, cyclic,
                             construct_module, scalar_module, submodules,
                             vector_module, verify_module_axioms)
from netring.rings import (GaloisField, IntegersMod, MatrixRing, PrimeField,
                           TableRing, construct_ring)


def test_scalar_module_axioms(z4, gf4, m2f2):
    for ring in (z4, gf4, m2f2):
        mod = scalar_module(ring)
        verify_module_axioms(mod)
        assert mod.is_faithful()
        assert mod.vector_dim == (1 if ring.is_field() else None) or True


def test_ring_backed_tables_come_from_the_ring():
    ring = construct_ring(MatrixRing(PrimeField(3), 2))
    group, mod = modules.additive_group(ring), scalar_module(ring)
    # building the group and the module leaves the ring's tables unbuilt
    assert ring._add_table is None and ring._mul_table is None
    assert group.add_table() is ring.add_table()
    assert group.neg(5) == ring.neg(5)
    assert mod.act_table() is ring.mul_table()


def test_vector_module_axioms(gf2, gf3):
    for field, k in ((gf2, 2), (gf2, 3), (gf3, 2)):
        mod = vector_module(field, k)
        verify_module_axioms(mod)
        assert mod.group.size == field.size ** k
        assert mod.vector_dim == k
        assert mod.ring.size == field.size ** (k * k)
        assert mod.is_faithful()


def test_vector_action_is_matrix_times_vector(gf2):
    mod = vector_module(gf2, 2)
    mat = mod.ring
    # e_12 (unit matrix) swaps-in the second coordinate
    e12 = mat.matrix_unit(0, 1)
    for g in range(mod.group.size):
        coords = mod.group.parts(g)
        got = mod.group.parts(mod.act(e12, g))
        assert got == (coords[1], 0)


def test_unfaithful_action_and_quotient(z4):
    z2 = cyclic(2)
    mod = construct_module(z4, z2, lambda r, g: (r * g) % 2)
    verify_module_axioms(mod)
    assert not mod.is_faithful()
    assert mod.annihilator() == (0, 2)
    q, hom, faithful = annihilator_quotient(mod)
    assert q.size == 2
    assert faithful.is_faithful()
    for r in range(z4.size):
        for g in range(2):
            assert faithful.act(hom.mapping[r], g) == mod.act(r, g)


def test_corrupted_action_rejected(z4):
    z2 = cyclic(2)
    with pytest.raises(ModuleAxiomError):
        construct_module(z4, z2, lambda r, g: 1 if (r, g) == (2, 0) else
                         (r * g) % 2)


def test_submodule_lattices(gf2, gf3, z4):
    assert len(submodules(scalar_module(z4))) == 3       # 0, {0,2}, Z_4
    # over the full matrix ring the column space is simple
    assert len(submodules(vector_module(gf2, 2))) == 2
    assert len(submodules(vector_module(gf3, 2))) == 2
    # restricting the action to the field exposes the subspace lattice
    plane = modules.direct_sum(cyclic(2), cyclic(2))
    as_f2_space = construct_module(
        gf2, plane,
        lambda r, g: plane.from_parts(tuple(r * c % 2
                                            for c in plane.parts(g))))
    subs = submodules(as_f2_space)
    assert sorted(len(s) for s in subs) == [1, 2, 2, 2, 4]


def test_matrix_ring_left_ideals_as_submodules(m2f2):
    mod = scalar_module(m2f2)
    subs = submodules(mod)
    assert sorted(len(s) for s in subs) == [1, 4, 4, 4, 16]


def test_nonunital_rng_module_skips_identity_axiom():
    # even residues mod 4: {0, 2}, every product lands on 0
    add = ((0, 1), (1, 0))
    mul = ((0, 0), (0, 0))
    rng = construct_ring(TableRing(add, mul, unital=False))
    assert not rng.unital
    mod = construct_module(rng, cyclic(2), lambda r, g: 0)
    verify_module_axioms(mod)  # must not demand an identity action


def test_module_json_round_trip(gf2, gf3):
    for mod in (scalar_module(construct_ring(IntegersMod(4))),
                vector_module(gf2, 2), vector_module(gf3, 2)):
        back = modules.module_from_json(modules.module_to_json(mod))
        assert back.ring.size == mod.ring.size
        assert back.group.size == mod.group.size
        for r in range(0, mod.ring.size, max(1, mod.ring.size // 7)):
            for g in range(mod.group.size):
                assert back.act(r, g) == mod.act(r, g)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([IntegersMod(4), GaloisField(2, 2), PrimeField(5),
                        MatrixRing(PrimeField(2), 2)]),
       st.data())
def test_module_identities_random(desc, data):
    ring = construct_ring(desc)
    mod = scalar_module(ring)
    r = data.draw(st.integers(0, ring.size - 1))
    s = data.draw(st.integers(0, ring.size - 1))
    g = data.draw(st.integers(0, mod.group.size - 1))
    h = data.draw(st.integers(0, mod.group.size - 1))
    assert mod.act(r, mod.group.add(g, h)) == mod.group.add(mod.act(r, g),
                                                            mod.act(r, h))
    assert mod.act(ring.add(r, s), g) == mod.group.add(mod.act(r, g),
                                                       mod.act(s, g))
    assert mod.act(ring.mul(r, s), g) == mod.act(r, mod.act(s, g))
    assert mod.act(ring.one, g) == g


# ---------------------------------------------------------------------------
# faithfulness and action tables recorded by construction, against scans

def _scanned_annihilator(mod):
    return tuple(r for r in range(mod.ring.size)
                 if all(mod._action(r, g) == 0 for g in range(mod.group.size)))


def test_scalar_annihilators_match_scans():
    from netring.solver import structured_catalog
    for desc in structured_catalog(32):
        mod = scalar_module(construct_ring(desc))
        assert mod.annihilator() == _scanned_annihilator(mod) == (0,), desc


def test_product_code_annihilators_match_scans(gf2, z4):
    from netring.codes import LinearCode
    from netring.transforms import product_code
    from conftest import chain_network
    net = chain_network()
    edges = list(net.edges)

    def code(module):
        return LinearCode(module, {e: (1,) for e in edges},
                          {("t", "m"): (1,)})

    unfaithful = construct_module(z4, cyclic(2), lambda r, g: (r * g) % 2)
    for parts in ((scalar_module(gf2), scalar_module(z4)),
                  (scalar_module(gf2), unfaithful),
                  (unfaithful, vector_module(gf2, 2)),
                  (unfaithful, unfaithful)):
        mod = product_code([code(m) for m in parts]).module
        assert mod.annihilator() == _scanned_annihilator(mod), parts
        assert mod.is_faithful() == all(m.is_faithful() for m in parts)


@pytest.mark.parametrize("desc,k", [(PrimeField(2), 2), (PrimeField(2), 3),
                                    (PrimeField(3), 2), (GaloisField(2, 2), 2)])
def test_vector_action_table_matches_pairwise_action(desc, k):
    field = construct_ring(desc)
    mod = vector_module(field, k)
    nR, nG = mod.ring.size, mod.group.size

    def times(m, g):        # matrix entries times the column, by hand
        entries, vec = mod.ring.mat_entries(m), mod.group.parts(g)
        out = []
        for row in entries:
            acc = 0
            for x, v in zip(row, vec):
                acc = field.add(acc, field.mul(x, v))
            out.append(acc)
        return mod.group.from_parts(out)

    want = [[times(r, g) for g in range(nG)] for r in range(nR)]
    assert [[mod._action(r, g) for g in range(nG)] for r in range(nR)] == want
    assert mod.act_table().tolist() == want
    # the direct sum's tables, also built from its components, likewise
    group = mod.group
    assert group.add_table().tolist() == [[group._add(a, b) for b in range(nG)]
                                          for a in range(nG)]
    assert [group.neg(a) for a in range(nG)] == [group._neg(a) for a in range(nG)]


def test_group_codec_on_arrays():
    group = modules.direct_sum(cyclic(3), cyclic(4), cyclic(2))
    idx = np.arange(group.size)
    parts = group.parts(idx)
    assert [tuple(int(p[i]) for p in parts) for i in idx] == \
        [group.parts(int(i)) for i in idx]
    assert (group.from_parts(parts) == idx).all()

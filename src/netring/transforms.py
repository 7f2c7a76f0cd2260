"""Solution-preserving transformations between codes.

Each transform rewrites a working code into a working code over a related
algebra: pushing coefficients through a ring homomorphism, reading a scalar
code over a matrix ring as a vector code over the entry ring (and back),
stacking two vector codes block-diagonally, running codes over product rings
componentwise, and quotienting away an annihilator or a maximal ideal.
"""
from __future__ import annotations

import itertools

from . import codes as _codes
from . import modules as _modules
from . import rings as _rings
from .codes import LinearCode
from .modules import Module
from .rings import Ring, RingHom


def _merge(codes: list[LinearCode], build) -> LinearCode:
    """The code over module whose coefficient in each place is fn of the
    codes' coefficients there, where (module, fn) = build() is called only
    once the codes are known to cover the same network."""
    first, rest = codes[0], codes[1:]
    if any(c.edge_coeffs.keys() != first.edge_coeffs.keys()
           or c.decodings.keys() != first.decodings.keys() for c in rest):
        raise ValueError("codes do not cover the same network")
    module, fn = build()
    edges = {e: tuple(map(fn, cs, *[c.edge_coeffs[e] for c in rest]))
             for e, cs in first.edge_coeffs.items()}
    decs = {k: tuple(map(fn, cs, *[c.decodings[k] for c in rest]))
            for k, cs in first.decodings.items()}
    return LinearCode(module, edges, decs)


def _map_code(code: LinearCode, module: Module, fn) -> LinearCode:
    return _merge([code], lambda: (module, fn))


def hom_lift(code: LinearCode, hom: RingHom, target_module: Module) -> LinearCode:
    """Push a code through a ring homomorphism, coefficient by coefficient.

    The source module must be faithful (so that the code's correctness is a
    system of coefficient identities, which any homomorphism preserves)."""
    if code.module.ring.descriptor != hom.domain.descriptor:
        raise ValueError("homomorphism domain does not match the code's ring")
    if target_module.ring.descriptor != hom.codomain.descriptor:
        raise ValueError("target module is not over the homomorphism codomain")
    if not code.module.is_faithful():
        raise ValueError("lifting needs a faithful source module; apply "
                         "quotient_by_annihilator first")
    return _map_code(code, target_module, hom.mapping.__getitem__)


def matrix_scalar_to_vector(code: LinearCode) -> LinearCode:
    """Reinterpret a scalar code over a k x k matrix ring as a k-dimensional
    vector code over the entry ring; coefficients are untouched."""
    ring = code.module.ring
    if ring.kind != "matrix":
        raise ValueError("expected a scalar code over a matrix ring")
    if code.module.group.size != ring.size:
        raise ValueError("expected the module to be the ring itself")
    for probe in range(0, ring.size, max(1, ring.size // 16)):
        if code.module.act(probe, 1) != ring.mul(probe, 1):
            raise ValueError("module action is not ring multiplication")
    return _map_code(code, _modules.vector_module(ring.inner, ring.k), lambda c: c)


def vector_to_matrix_scalar(code: LinearCode) -> LinearCode:
    """Inverse reinterpretation: a vector code becomes a scalar code over its
    coefficient matrix ring."""
    if code.module.vector_dim is None:
        raise ValueError("expected a vector code")
    return _map_code(code, _modules.scalar_module(code.module.ring), lambda c: c)


def dim_sum(code_a: LinearCode, code_b: LinearCode) -> LinearCode:
    """Block-diagonal sum of two vector codes over the same base ring."""
    ma, mb = code_a.module, code_b.module
    if ma.vector_dim is None or mb.vector_dim is None:
        raise ValueError("both inputs must be vector codes")
    if ma.base_ring.descriptor != mb.base_ring.descriptor:
        raise ValueError("vector codes live over different base rings")
    ka, kb = ma.vector_dim, mb.vector_dim

    def build():
        out = _modules.vector_module(ma.base_ring, ka + kb)

        def block(ca: int, cb: int) -> int:
            return out.ring.mat_from_entries(
                [(*row, *[0] * kb) for row in _codes._coeff_block(ma, ca)]
                + [(*[0] * ka, *row) for row in _codes._coeff_block(mb, cb)])
        return out, block
    return _merge([code_a, code_b], build)


def product_code(codes: list[LinearCode]) -> LinearCode:
    """Run several codes on the same network side by side, over the product
    of their rings acting componentwise on the product of their groups."""
    if not codes:
        raise ValueError("product of no codes")
    return _merge(codes, lambda: _product_module(codes))


def _product_module(codes: list[LinearCode]):
    """The product module of product_code, and the map from one
    coefficient per code to their product coefficient."""
    ring = _rings.construct_ring(
        _rings.Product(tuple(c.module.ring.descriptor for c in codes)))
    group = _modules.direct_sum(*[c.module.group for c in codes])
    mods = [c.module for c in codes]

    def act(r: int, g: int) -> int:
        rp = ring.prod_parts(r)
        gp = group.parts(g)
        return group.from_parts([m.act(a, b) for m, a, b in zip(mods, rp, gp)])

    module = Module(ring, group, act,
                    label=" x ".join(m.label for m in mods))
    # r acts as zero exactly when every component of r does
    module._annihilator = tuple(sorted(
        ring.prod_from_parts(parts)
        for parts in itertools.product(*(m.annihilator() for m in mods))))
    return module, lambda *cs: ring.prod_from_parts(cs)


def quotient_by_annihilator(code: LinearCode) -> tuple[LinearCode, RingHom]:
    """Replace the ring by ring/annihilator; the induced code is over a
    faithful module and decodes exactly as before."""
    q, hom, faithful = _modules.annihilator_quotient(code.module)
    return _map_code(code, faithful, hom.mapping.__getitem__), hom


def simple_reduction(ring: Ring) -> tuple[Ring, RingHom]:
    """Quotient onto the largest simple image (smallest maximal two-sided
    ideal, ties broken by element order); the identity when already simple
    or of one element."""
    maxi = _rings._maximal_ideals(ring)
    if not maxi or maxi[0].elements == (0,):
        return ring, _rings.identity_hom(ring)
    return _rings.quotient(ring, maxi[0])

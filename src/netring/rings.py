"""Finite unital rings (and rngs) behind a uniform element-index interface.

Every ring element is addressed by an integer 0..size-1.  Index 0 is always
the additive identity and index 1 the multiplicative identity whenever the
ring has one.  Constructors cover integers mod n, prime and Galois fields,
full and upper-triangular matrix rings, finite products, and explicit
operation tables (with a flag for rngs, i.e. rings without an identity).
Tables from outside, quotients and prime-power blocks all become table
rings through one re-indexing builder, `_table_ring`; only tables from
outside are checked, and only for what the indexing needs.

Residue rings (integers mod n, prime fields) compute on the index itself.
Every compound ring records its coordinate rings, one per digit, most
significant first: k copies of GF(p) for GF(p^k) (digits are the polynomial
coefficients, highest degree first), one copy of the entry ring per matrix
slot (row-major; only the slots r <= c for upper-triangular rings), and the
factors of a product.  The digits read as a mixed-radix number give an
element's natural code (`_radix_split`/`_radix_join`, which the direct sums
of `modules` use as they are); the codec `Ring.coords`/`Ring.from_coords`
is the one place that converts, moving the identity's code to index 1 and
shifting the codes below it up by one.  Addition and negation act digit
by digit for every compound kind; each kind supplies only its
multiplication, as a list of terms per output digit (the polynomial
product reduced by the modulus, the row-by-column sum, or the
componentwise product).  The scalar operations and `Ring._build_tables`
evaluate the same rules, the latter on whole rows of the lazily built
coordinate array, a block of rows at a time.

The same rules also read as one integer rule on the ring's flat digits, the
residue digits at the leaves of its coordinate tree (M_2(GF(4)) has eight,
each mod 2): digit d of a*b is sum_ij T[i, j, d] a_i b_j mod m_d.  The
structure tensor T is composed, on first use, from the coordinate rings'
tensors and the kind's terms, never by sampling products; `Ring.digits` and
`Ring.from_digits` convert whole index arrays by arithmetic, and
`Ring.left_mul_matrices` gives the matrix c . T with which a row of digits
is multiplied by c on the left.  Rings with a table ring among their leaves
have no digit rule.

Structural queries cover axiom verification, ideal lattices, quotients,
homomorphism and isomorphism search, the simple rings of each size
(`simple_rings`, with `simple_ring` naming M_r(GF(q))) and the catalogue
of semisimple rings of prime-power order.  Ring structure comes by one
route, the maximal two-sided ideals M of a unital ring: `simple_quotients`
names the simple ring M_r(GF(q)) that each R/M is, the radical is the
intersection of the M, and R/radical is the product of the R/M (Chinese
remainder theorem), so `semisimple_decompose` lists their blocks.  A field
or a matrix ring over one (`field_view`) is simple and names its own
block, with no lattice, isomorphism search or size cap; any other ring
walks its two-sided lattice and matches each quotient by isomorphism.  One
lattice routine, `_lattice`, serves left and two-sided ideals and the
submodules of `modules`: it takes an additive table and action tables (the
multiplication table, its transpose, or a module's action table), closes
each element a whole frontier at a time, and joins the closures by sums.
The two-sided check in `quotient` reuses its closure.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .networks import _show

TABLE_CAP = 4096      # largest size whose dense n x n tables are built or read
HOM_CAP = 256         # largest size of either ring in a homomorphism search


# ---------------------------------------------------------------------------
# descriptors

@dataclass(frozen=True)
class PrimeField:
    p: int


@dataclass(frozen=True)
class GaloisField:
    """GF(p^k); poly holds the modulus coefficients c_0..c_k ascending.

    poly=None selects the built-in modulus: the lexicographically least monic
    irreducible, ordered by the integer encoding sum(c_i * p^i) of the
    non-leading coefficients.
    """
    p: int
    k: int
    poly: Optional[tuple[int, ...]] = None

    def __init__(self, p, k, poly=None):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "poly", tuple(poly) if poly is not None else None)


@dataclass(frozen=True)
class IntegersMod:
    n: int


@dataclass(frozen=True)
class MatrixRing:
    inner: "RingDescriptor"
    k: int


@dataclass(frozen=True)
class UpperTriangular:
    field: "RingDescriptor"
    k: int


@dataclass(frozen=True)
class Product:
    factors: tuple["RingDescriptor", ...]

    def __init__(self, factors):
        object.__setattr__(self, "factors", tuple(factors))


@dataclass(frozen=True)
class TableRing:
    """Explicit operation tables; `one` is the identity's position in the
    tables as given (discovered when omitted), `unital=False` marks a rng."""
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    one: Optional[int] = None
    unital: bool = True

    def __init__(self, add, mul, one=None, unital=True):
        object.__setattr__(self, "add", tuple(tuple(row) for row in add))
        object.__setattr__(self, "mul", tuple(tuple(row) for row in mul))
        object.__setattr__(self, "one", one)
        object.__setattr__(self, "unital", unital)


RingDescriptor = Union[
    PrimeField, GaloisField, IntegersMod, MatrixRing, UpperTriangular, Product, TableRing
]


def descriptor_size(desc: RingDescriptor) -> int:
    """Number of elements of the ring a descriptor names, without building it."""
    if isinstance(desc, PrimeField):
        return desc.p
    if isinstance(desc, GaloisField):
        return desc.p ** desc.k
    if isinstance(desc, IntegersMod):
        return desc.n
    if isinstance(desc, MatrixRing):
        return descriptor_size(desc.inner) ** (desc.k ** 2)
    if isinstance(desc, UpperTriangular):
        return descriptor_size(desc.field) ** (desc.k * (desc.k + 1) // 2)
    if isinstance(desc, Product):
        return math.prod(descriptor_size(f) for f in desc.factors)
    if isinstance(desc, TableRing):
        return len(desc.add)
    raise TypeError(f"not a ring descriptor: {desc!r}")


# built-in Galois moduli (lex-least monic irreducible, coefficients c_0..c_k).
# Regenerated from scratch by a unit test; do not edit by hand.
IRREDUCIBLE = {
    (2, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1), (2, 5): (1, 0, 1, 0, 0, 1), (2, 6): (1, 1, 0, 0, 0, 0, 1),
    (3, 1): (0, 1), (3, 2): (1, 0, 1), (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1), (3, 5): (1, 2, 0, 0, 0, 1), (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (5, 1): (0, 1), (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1),
    (5, 4): (2, 0, 0, 0, 1), (5, 5): (1, 4, 0, 0, 0, 1), (5, 6): (2, 1, 0, 0, 0, 0, 1),
    (7, 1): (0, 1), (7, 2): (1, 0, 1), (7, 3): (2, 0, 0, 1),
    (7, 4): (1, 1, 0, 0, 1), (7, 5): (3, 1, 0, 0, 0, 1), (7, 6): (2, 0, 0, 0, 0, 0, 1),
}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _poly_mul_mod(a, b, mod, p):
    k = len(mod) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(len(res) - 1, k - 1, -1):
        c = res[i]
        if c:
            for j in range(k + 1):
                res[i - k + j] = (res[i - k + j] - c * mod[j]) % p
    res = res[:k]
    return res + [0] * (k - len(res))


def poly_is_irreducible(coeffs, p: int) -> bool:
    """Monic polynomial over GF(p) irreducible?  (x^(p^d) fixed-point test.)"""
    k = len(coeffs) - 1
    if k < 1 or coeffs[-1] != 1:
        return False
    if k == 1:
        return True

    def frobenius_power(e):
        cur = ([0, 1] + [0] * (k - 2))[:k]
        for _ in range(e):
            out = ([1] + [0] * (k - 1))
            base, n = cur[:], p
            while n:
                if n & 1:
                    out = _poly_mul_mod(out, base, coeffs, p)
                base = _poly_mul_mod(base, base, coeffs, p)
                n >>= 1
            cur = out
        return cur

    x = ([0, 1] + [0] * (k - 2))[:k]
    if frobenius_power(k) != x:
        return False
    for d in range(2, k + 1):
        if k % d == 0 and is_prime(d) and frobenius_power(k // d) == x:
            return False
    return True


def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Built-in GF(p^k) modulus; computed by search when outside the table."""
    if (p, k) in IRREDUCIBLE:
        return IRREDUCIBLE[(p, k)]
    n = 0
    while True:
        c, t = [], n
        for _ in range(k):
            c.append(t % p)
            t //= p
        if t:
            raise ValueError(f"no irreducible polynomial found for p={p} k={k}")
        coeffs = tuple(c) + (1,)
        if poly_is_irreducible(coeffs, p):
            return coeffs
        n += 1


# ---------------------------------------------------------------------------
# the ring itself

_RESIDUE_KINDS = ("prime_field", "integers_mod")
_TABLE_BLOCK = 1 << 16   # table entries computed per block of rows
_DIGIT_CAP = 1 << 20     # largest residue modulus with a digit rule, so that
                         # sums of digit products stay far inside int64


def _radix_split(nat, radices):
    """Digits of the mixed-radix number nat (an int, or an array of them),
    most significant first: a tuple of ints, or of arrays."""
    out = []
    for s in reversed(radices):
        nat, d = divmod(nat, s)
        out.append(d)
    return tuple(reversed(out))


def _radix_join(digits, radices):
    """Inverse of _radix_split; also joins a list of digit arrays."""
    nat = 0
    for s, d in zip(radices, digits):
        nat = nat * s + d
    return nat


def _pin(nat, one_nat: int):
    """Element index of natural code nat (an int or an array of them): 0
    stays 0, the identity's code moves to 1, the codes below it shift up."""
    if isinstance(nat, np.ndarray):
        out = nat + 1 - (nat > one_nat)
        out[nat == 0] = 0
        out[nat == one_nat] = 1
        return out
    if nat == 0:
        return 0
    if nat == one_nat:
        return 1
    return nat + 1 - (nat > one_nat)


def _unpin(idx, one_nat: int):
    """Inverse of _pin, on an int or an array of indices."""
    if isinstance(idx, np.ndarray):
        return np.where(idx == 0, 0, np.where(idx == 1, one_nat,
                                              idx - 1 + (idx - 1 >= one_nat)))
    if idx == 0:
        return 0
    if idx == 1:
        return one_nat
    return idx - 1 if idx - 1 < one_nat else idx


def _digit_rule(ring: "Ring"):
    """(moduli, T) of the ring's flat digit rule, or (None, None).

    A residue ring is one digit with T = [[[1]]].  A compound ring places
    its coordinate rings' digits side by side and adds, for every term
    (i, j, c) of output coordinate d, c times coordinate ring d's tensor
    into the block (i, j, d); its coordinate rings i, j and d are then one
    and the same ring.  A table ring, or one among the coordinate rings,
    has no rule."""
    if ring.kind in _RESIDUE_KINDS:
        if ring.size > _DIGIT_CAP:
            return None, None
        return np.array([ring.size], dtype=np.int64), np.ones((1, 1, 1), np.int64)
    subs = ring.coord_rings
    if not subs or any(r.mul_tensor is None for r in subs):
        return None, None
    off = [0]
    for r in subs:
        off.append(off[-1] + len(r.digit_moduli))
    tensor = np.zeros((off[-1],) * 3, dtype=np.int64)
    for d, terms in enumerate(ring._mul_terms):
        sub, w = subs[d].mul_tensor, len(subs[d].digit_moduli)
        for i, j, c in terms:
            if w == 1:      # a residue ring's [[[1]]]; scalar indexing is cheap
                tensor[off[i], off[j], off[d]] += c
            else:
                tensor[off[i]:off[i] + w, off[j]:off[j] + w, off[d]:off[d] + w] += c * sub
    moduli = np.concatenate([r.digit_moduli for r in subs])
    return moduli, tensor % moduli


def _same(u):
    return u


def _digit_ops(ring: "Ring", tables: bool):
    """(add, mul, neg, reduce) on digits over a coordinate ring.

    Residue rings use plain integer arithmetic and reduce once, at the end
    of a digit's sum; any other ring uses its scalar operations, or lookups
    in its tables when `tables` is set (the digits are then arrays)."""
    if ring.kind in _RESIDUE_KINDS:
        n = ring.size
        return operator.add, operator.mul, operator.neg, lambda u: u % n
    if not tables:
        return ring.add, ring.mul, ring.neg, _same
    add, mul = ring.add_table(), ring.mul_table()
    return ((lambda u, v: add[u, v]), (lambda u, v: mul[u, v]),
            ring.neg_table().__getitem__, _same)


class Ring:
    """A finite ring; construct through construct_ring().

    A compound ring (Galois field, matrix, upper-triangular or product)
    addresses its elements by digits over `coord_rings`, most significant
    first: coords() and from_coords() are the only conversions between an
    element index and its digits.  Addition and negation act digit by
    digit; `mul_terms` is the kind's multiplication rule: digit d of a*b is
    the sum, over the terms (i, j, c) listed for d, of c * a_i * b_j in
    coordinate ring d.  Residue rings compute on the index itself; table
    rings arrive with their tables."""

    def __init__(self, descriptor, kind, size, unital=True, *, coord_rings=(),
                 one_coords=(), mul_terms=(), tables=None):
        self.descriptor = descriptor
        self.kind = kind
        self.size = size
        self.unital = unital
        self.one = (1 if size > 1 else 0) if unital else None
        self.coord_rings: tuple[Ring, ...] = tuple(coord_rings)
        self._radices = tuple(r.size for r in self.coord_rings)
        self._one_nat = _radix_join(one_coords, self._radices)
        self._mul_terms = mul_terms
        # coordinates that are residues already are the flat digits
        self._flat = all(r.kind in _RESIDUE_KINDS for r in self.coord_rings)
        self._ops = None
        self._coord_array = None
        self._add_table, self._mul_table, self._neg_table = tables or (None,) * 3
        self._lists = None
        self._char = None
        self._commutative = None
        # structure hooks filled in by the constructor where they apply
        self.inner: Optional[Ring] = None
        self.k: Optional[int] = None
        self.slots: Optional[tuple[tuple[int, int], ...]] = None
        self.factors: Optional[tuple[Ring, ...]] = None
        self.input_index_map: Optional[tuple[int, ...]] = None

    def __repr__(self):
        return f"Ring({self.descriptor!r}, size={self.size})"

    # -- the coordinate codec

    def coords(self, idx):
        """Digits of element idx over coord_rings, most significant first;
        for an array of indices, an array with one more axis of digits."""
        if not self.coord_rings:
            raise TypeError(f"a {self.kind} ring has no coordinates")
        out = _radix_split(_unpin(idx, self._one_nat), self._radices)
        if isinstance(idx, np.ndarray):
            return np.stack(out, axis=-1)
        return out

    def from_coords(self, digits):
        """Inverse of coords(); also encodes a list of digit arrays."""
        if not self.coord_rings:
            raise TypeError(f"a {self.kind} ring has no coordinates")
        if len(digits) != len(self._radices):
            raise ValueError(f"expected {len(self._radices)} digits, "
                             f"got {len(digits)}")
        return _pin(_radix_join(digits, self._radices), self._one_nat)

    def _coords_of_all(self) -> np.ndarray:
        """size x digits array: row idx holds coords(idx) (built on first use)."""
        if self._coord_array is None:
            self._coord_array = self.coords(np.arange(self.size, dtype=np.int64))
        return self._coord_array

    # -- the flat digit rule (see the module notes)

    @functools.cached_property
    def _rule(self):
        # built on first use, so rings that never multiply digit rows pay nothing
        return _digit_rule(self)

    @property
    def digit_moduli(self) -> Optional[np.ndarray]:
        """Modulus of each flat digit; None without a digit rule."""
        return self._rule[0]

    @property
    def mul_tensor(self) -> Optional[np.ndarray]:
        """The structure tensor T[i, j, d]; None without a digit rule."""
        return self._rule[1]

    def digits(self, idx) -> np.ndarray:
        """Flat residue digits of an array of element indices, as an array
        with one more axis; computed by arithmetic, whatever the size."""
        idx = np.asarray(idx, dtype=np.int64)
        if self.mul_tensor is None:
            raise TypeError(f"{describe(self.descriptor)} has no digit rule")
        if not self.coord_rings:
            return idx[..., None]
        cs = self.coords(idx)
        if self._flat:
            return cs
        return np.concatenate([r.digits(cs[..., t])
                               for t, r in enumerate(self.coord_rings)], axis=-1)

    def from_digits(self, digits) -> np.ndarray:
        """Element indices of an array of flat digits (the last axis)."""
        digits = np.asarray(digits, dtype=np.int64)
        if not self.coord_rings:
            return digits[..., 0]
        if self._flat:
            return self.from_coords([digits[..., t] for t in range(digits.shape[-1])])
        parts, lo = [], 0
        for r in self.coord_rings:
            hi = lo + len(r.digit_moduli)
            parts.append(r.from_digits(digits[..., lo:hi]))
            lo = hi
        return self.from_coords(parts)

    def left_mul_matrices(self, coeffs) -> np.ndarray:
        """For each c in coeffs the D x D matrix L_c = c . T (mod the
        moduli): the digits of c*x are those of x times L_c."""
        cd = self.digits(coeffs)
        n = self.mul_tensor.shape[0]
        flat = cd @ self.mul_tensor.reshape(n, n * n)
        return flat.reshape(cd.shape[:-1] + (n, n)) % self.digit_moduli

    def _add_coords(self, x, y, ops):
        return [red(add(u, v)) for (add, _, _, red), u, v in zip(ops, x, y)]

    def _neg_coords(self, x, ops):
        return [red(neg(u)) for (_, _, neg, red), u in zip(ops, x)]

    def _mul_coords(self, x, y, ops):
        out = []
        for (add, mul, _, red), terms in zip(ops, self._mul_terms):
            acc = 0
            for i, j, c in terms:
                v = mul(x[i], y[j])
                acc = add(acc, v if c == 1 else mul(c, v))
            out.append(red(acc))
        return out

    def _scalar_ops(self):
        if self._ops is None:
            self._ops = [_digit_ops(r, False) for r in self.coord_rings]
        return self._ops

    # -- arithmetic on canonical indices

    def add(self, a: int, b: int) -> int:
        t = self._add_table
        if t is not None:
            return int(t[a, b])
        if self.coord_rings:
            return self.from_coords(self._add_coords(
                self.coords(a), self.coords(b), self._scalar_ops()))
        return (a + b) % self.size

    def neg(self, a: int) -> int:
        t = self._neg_table
        if t is not None:
            return int(t[a])
        if self.coord_rings:
            return self.from_coords(self._neg_coords(self.coords(a),
                                                     self._scalar_ops()))
        return (-a) % self.size

    def mul(self, a: int, b: int) -> int:
        t = self._mul_table
        if t is not None:
            return int(t[a, b])
        if self.coord_rings:
            return self.from_coords(self._mul_coords(
                self.coords(a), self.coords(b), self._scalar_ops()))
        return (a * b) % self.size

    def scalar_multiple(self, n: int, a: int) -> int:
        """n-fold additive multiple n*a (n may exceed the characteristic)."""
        acc, base = 0, a
        while n:
            if n & 1:
                acc = self.add(acc, base)
            base = self.add(base, base)
            n >>= 1
        return acc

    # -- dense tables (lazy; only for sizes <= TABLE_CAP)

    def has_tables(self) -> bool:
        return self.size <= TABLE_CAP

    def tables_built(self) -> bool:
        """Whether the dense tables exist already (table rings always)."""
        return self._mul_table is not None

    def add_table(self) -> np.ndarray:
        if self._add_table is None:
            self._build_tables()
        return self._add_table

    def mul_table(self) -> np.ndarray:
        if self._mul_table is None:
            self._build_tables()
        return self._mul_table

    def neg_table(self) -> np.ndarray:
        if self._neg_table is None:
            self._build_tables()
        return self._neg_table

    def list_tables(self) -> tuple[list, list, list]:
        """The dense add, mul and neg tables as nested lists, converted
        once per ring: a list lookup beats indexing numpy one scalar at a
        time.  Builds the dense tables when they do not exist yet."""
        if self._lists is None:
            self._lists = (self.add_table().tolist(),
                           self.mul_table().tolist(),
                           self.neg_table().tolist())
        return self._lists

    def _build_tables(self):
        """Evaluate the scalar rules on whole rows of elements at once, a
        block of rows at a time, so temporaries stay a few blocks large."""
        if self.size > TABLE_CAP:
            raise ValueError(
                f"ring of size {self.size} exceeds the dense-table cap {TABLE_CAP}")
        n = self.size
        idx = np.arange(n, dtype=np.int64)
        if self.coord_rings:
            ops = [_digit_ops(r, True) for r in self.coord_rings]
            digits = list(self._coords_of_all().T)
            y = [col[None, :] for col in digits]

            def block(rows):
                x = [col[rows, None] for col in digits]
                return (self.from_coords(self._add_coords(x, y, ops)),
                        self.from_coords(self._mul_coords(x, y, ops)))
            neg = self.from_coords(self._neg_coords(digits, ops))
        else:
            def block(rows):
                a = idx[rows, None]
                return (a + idx) % n, (a * idx) % n
            neg = (-idx) % n
        add = np.empty((n, n), dtype=np.int64)
        mul = np.empty((n, n), dtype=np.int64)
        step = max(1, _TABLE_BLOCK // n)
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            add[rows], mul[rows] = block(rows)
        self._add_table, self._mul_table, self._neg_table = add, mul, neg

    # -- derived structure

    def characteristic(self) -> int:
        if self._char is None:
            if self.unital and self.size > 1:
                c, x = 1, self.one
                while x != 0:
                    x = self.add(x, self.one)
                    c += 1
                self._char = c
            else:
                # one element, or a rng: the lcm of the additive orders
                self._char = math.lcm(*_additive_orders(self).tolist())
        return self._char

    def is_commutative(self) -> bool:
        if self._commutative is None:
            self._commutative = _commutative(self)
        return self._commutative

    def is_field(self) -> bool:
        if not self.unital or self.size < 2:
            return False
        if self.kind in ("prime_field", "galois_field"):
            return True
        if self.kind == "integers_mod":
            return is_prime(self.size)
        if self.kind in ("matrix", "upper_triangular") and self.k > 1:
            return False
        if self.kind == "product" and len(self.factors) > 1:
            return False
        if not self.is_commutative():
            return False
        return all(1 in (self.mul(a, b) for b in range(self.size))
                   for a in range(1, self.size))

    # -- structure accessors: views on coords (TypeError on the wrong kind)

    def field_coeffs(self, idx: int) -> tuple[int, ...]:
        """Polynomial coefficients c_0..c_{k-1}, ascending."""
        if self.kind != "galois_field":
            raise TypeError("field_coeffs needs a galois_field ring")
        return self.coords(idx)[::-1]

    def field_from_coeffs(self, coeffs) -> int:
        if self.kind != "galois_field":
            raise TypeError("field_from_coeffs needs a galois_field ring")
        p = self.descriptor.p
        return self.from_coords([c % p for c in reversed(tuple(coeffs))])

    def mat_entries(self, idx: int) -> tuple[tuple[int, ...], ...]:
        """k x k entry grid of a matrix or upper-triangular ring element."""
        if self.slots is None:
            raise TypeError("mat_entries needs a matrix or upper_triangular ring")
        rows = [[0] * self.k for _ in range(self.k)]
        for (r, c), v in zip(self.slots, self.coords(idx)):
            rows[r][c] = v
        return tuple(tuple(row) for row in rows)

    def mat_from_entries(self, rows) -> int:
        if self.slots is None:
            raise TypeError("mat_from_entries needs a matrix or upper_triangular ring")
        rows = tuple(tuple(r) for r in rows)
        if self.kind == "upper_triangular" and any(
                rows[r][c] for r in range(self.k) for c in range(r)):
            raise ValueError("entry below the diagonal must be zero")
        return self.from_coords([rows[r][c] for r, c in self.slots])

    def matrix_unit(self, r: int, c: int) -> int:
        """The matrix with 1 at (r, c) and zeros elsewhere."""
        k = self.k
        rows = [[0] * k for _ in range(k)]
        rows[r][c] = 1
        return self.mat_from_entries(rows)

    def prod_parts(self, idx: int) -> tuple[int, ...]:
        if self.kind != "product":
            raise TypeError("prod_parts needs a product ring")
        return self.coords(idx)

    def prod_from_parts(self, parts) -> int:
        if self.kind != "product":
            raise TypeError("prod_from_parts needs a product ring")
        return self.from_coords(tuple(parts))


# ---------------------------------------------------------------------------
# construction

def construct_ring(descriptor: RingDescriptor) -> Ring:
    """Build a ring from its descriptor (deterministic element indexing)."""
    if isinstance(descriptor, PrimeField):
        if not is_prime(descriptor.p):
            raise ValueError(f"{descriptor.p} is not prime")
        return Ring(descriptor, "prime_field", descriptor.p)

    if isinstance(descriptor, IntegersMod):
        if descriptor.n < 2:
            raise ValueError("modulus must be at least 2")
        return Ring(descriptor, "integers_mod", descriptor.n)

    if isinstance(descriptor, GaloisField):
        return _construct_galois(descriptor)

    if isinstance(descriptor, (MatrixRing, UpperTriangular)):
        return _construct_matrix(descriptor)

    if isinstance(descriptor, Product):
        return _construct_product(descriptor)

    if isinstance(descriptor, TableRing):
        return _construct_table(descriptor)

    raise TypeError(f"not a ring descriptor: {descriptor!r}")


def _construct_galois(desc: GaloisField) -> Ring:
    p, k = desc.p, desc.k
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be at least 1")
    poly = desc.poly if desc.poly is not None else default_modulus(p, k)
    poly = tuple(c % p for c in poly[:-1]) + (poly[-1],)
    if len(poly) != k + 1 or poly[-1] != 1:
        raise ValueError("modulus must be monic of degree k")
    # the built-in moduli are irreducible by construction (and re-derived by
    # the ring tests); only a caller's modulus needs the check
    if desc.poly is not None and not poly_is_irreducible(poly, p):
        raise ValueError(f"modulus {poly} is reducible over GF({p})")
    # red[d]: coefficients of x^d modulo the modulus, for d <= 2k - 2
    red = [[int(i == d) for i in range(k)] for d in range(k)]
    for _ in range(k - 1):
        prev = red[-1]
        red.append([(low - prev[-1] * m) % p
                    for low, m in zip([0] + prev[:-1], poly)])
    # digit t holds the coefficient of x^(k-1-t): polynomial product, reduced
    terms = [[(k - 1 - i, k - 1 - j, red[i + j][e])
              for i in range(k) for j in range(k) if red[i + j][e]]
             for e in reversed(range(k))]
    base = construct_ring(PrimeField(p))
    ring = Ring(desc, "galois_field", p ** k, coord_rings=(base,) * k,
                one_coords=(0,) * (k - 1) + (1,), mul_terms=terms)
    ring.modulus = poly
    return ring


def _construct_matrix(desc) -> Ring:
    """Full matrix rings and, over a field, upper-triangular ones: entries
    at the slots (r, c) (r <= c only for upper-triangular), row-major."""
    full = isinstance(desc, MatrixRing)
    if desc.k < 1:
        raise ValueError("matrix dimension must be at least 1")
    inner = construct_ring(desc.inner if full else desc.field)
    if full and not inner.unital:
        raise ValueError("matrix rings need a unital entry ring")
    if not full and not inner.is_field():
        raise ValueError("upper-triangular rings are built over a field")
    k = desc.k
    slots = tuple((r, c) for r in range(k) for c in range(k) if full or r <= c)
    pos = {slot: t for t, slot in enumerate(slots)}
    # entry (r, c) of a product: the sum over t of a[r, t] * b[t, c]
    terms = [[(pos[r, t], pos[t, c], 1) for t in range(k)
              if (r, t) in pos and (t, c) in pos] for r, c in slots]
    ring = Ring(desc, "matrix" if full else "upper_triangular",
                inner.size ** len(slots), coord_rings=(inner,) * len(slots),
                one_coords=[int(r == c) for r, c in slots], mul_terms=terms)
    ring.inner = inner
    ring.k = k
    ring.slots = slots
    return ring


def _construct_product(desc: Product) -> Ring:
    if not desc.factors:
        raise ValueError("product needs at least one factor")
    factors = tuple(construct_ring(d) for d in desc.factors)
    if not all(f.unital for f in factors):
        raise ValueError("product factors must be unital")
    ring = Ring(desc, "product", math.prod(f.size for f in factors),
                coord_rings=factors, one_coords=(1,) * len(factors),
                mul_terms=[[(t, t, 1)] for t in range(len(factors))])
    ring.factors = factors
    return ring


def _construct_table(desc: TableRing) -> Ring:
    """The table ring of tables from outside, after the checks that make
    its element indexing well defined; the ring axioms themselves are left
    to verify_ring_axioms."""
    n = len(desc.add)
    if n < 1 or len(desc.mul) != n or any(len(r) != n for r in desc.add + desc.mul):
        raise ValueError("tables must be square and of equal size")
    add = np.array(desc.add, dtype=np.int64)
    mul = np.array(desc.mul, dtype=np.int64)
    if ((add < 0) | (add >= n)).any() or ((mul < 0) | (mul >= n)).any():
        raise ValueError("table entry out of range")
    idx = np.arange(n)

    def identities(t):
        # positions e with t[e, x] == x == t[x, e] for every x
        return np.flatnonzero((t == idx).all(axis=1) & (t.T == idx).all(axis=1))

    zeros = identities(add)
    if not zeros.size:
        raise ValueError("tables have no additive identity")
    zero, one = int(zeros[0]), None
    if desc.unital:
        ones = identities(mul)
        if desc.one is not None and desc.one not in ones:
            raise ValueError(f"position {desc.one} is not a multiplicative identity")
        if not ones.size:
            raise ValueError(
                "tables have no multiplicative identity; pass unital=False for a rng")
        one = int(ones[0]) if desc.one is None else desc.one
        if one == zero and n > 1:
            raise ValueError("additive and multiplicative identities coincide")
    if not (add == zero).any(axis=1).all():
        raise ValueError("some element has no additive inverse")
    return _table_ring(desc, add, mul, zero, one)


def _table_ring(desc, add: np.ndarray, mul: np.ndarray, zero: int,
                one: Optional[int]) -> Ring:
    """The table ring on add and mul, re-indexed: position zero becomes 0,
    position one (None for a rng) becomes 1, the rest keep their order.
    input_index_map sends each table position to its index."""
    n = len(add)
    first = [zero] if one is None or one == zero else [zero, one]
    order = np.array(first + [x for x in range(n) if x not in first])
    new_of_old = np.empty(n, dtype=np.int64)
    new_of_old[order] = np.arange(n)
    block = np.ix_(order, order)
    add_t, mul_t = new_of_old[add[block]], new_of_old[mul[block]]
    neg = np.argmax(add_t == 0, axis=1)
    ring = Ring(desc, "table", n, one is not None, tables=(add_t, mul_t, neg))
    ring.input_index_map = tuple(new_of_old.tolist())
    return ring


def _induced(ring: Ring, reps: np.ndarray, index: np.ndarray,
             one: Optional[int]) -> Ring:
    """The table ring on the sorted elements reps of ring, 0 among them,
    whose sum and product are ring's, read as positions in reps by index
    (an array over all of ring's elements).  A ring by construction, so
    it skips _construct_table's checks."""
    block = np.ix_(reps, reps)
    add = index[ring.add_table()[block]]
    mul = index[ring.mul_table()[block]]
    desc = TableRing(add.tolist(), mul.tolist(), one=one, unital=one is not None)
    return _table_ring(desc, add, mul, 0, one)


def _commutative(ring: Ring):
    if ring.kind in ("prime_field", "galois_field", "integers_mod"):
        return True
    if ring.kind in ("matrix", "upper_triangular") and ring.k > 1 and ring.inner.size > 1:
        return False
    if ring.kind == "product":
        return all(f.is_commutative() for f in ring.factors)
    mul = ring.mul_table()
    return bool((mul == mul.T).all())


# ---------------------------------------------------------------------------
# axiom verification

@dataclass
class AxiomReport:
    ok: bool
    axioms: dict
    witnesses: dict
    size: int
    # laws not established because their check rests on laws that fail
    unchecked: tuple = ()

    def __str__(self):
        lines = [f"ring axioms over {self.size} elements: "
                 + ("all hold" if self.ok else "FAILED")]
        for name, passed in self.axioms.items():
            if name in self.unchecked:
                mark, extra = " ?  ", "  not checked"
            else:
                mark = "ok " if passed else "FAIL"
                extra = "" if passed else f"  witness {self.witnesses[name]}"
            lines.append(f"  [{mark}] {name}{extra}")
        return "\n".join(lines)


_AXIOMS = ("add-commutative", "zero-identity", "negation", "add-associative",
           "mul-associative", "one-identity", "left-distributive",
           "right-distributive")


def _additive_generators(add: np.ndarray) -> list[int]:
    """Elements whose sums give every element, 0 first: each is the least
    element not reached yet, and what is reached is closed under the table
    in both orders, so no law is assumed."""
    n = add.shape[0]
    reached = np.zeros(n, dtype=bool)
    gens = []
    while not reached.all():
        g = int(reached.argmin())
        gens.append(g)
        reached[g] = True
        frontier = np.array([g])
        while frontier.size:
            grown = np.zeros(n, dtype=bool)
            members = np.flatnonzero(reached)
            _mark(grown, add, members, frontier)
            _mark(grown, add, frontier, members)
            frontier = np.flatnonzero(grown & ~reached)
            reached |= grown
    return gens


def verify_ring_axioms(ring: Ring) -> AxiomReport:
    """Check the ring axioms in n^2 times a few generators, not n^3 (n the
    size); ValueError past TABLE_CAP elements.

    Commutativity, the zero, negatives and the identity are checked on
    every element or pair.  The other laws are checked against S, a set of
    additive generators (_additive_generators): whatever holds 0 and S and
    is closed under + is everything.
    - add-associative, by Light's test: the b with (a + b) + c = a + (b + c)
      for all a and c are closed under +, so b in S is enough;
    - left- and right-distributive: once + is associative, the g with
      a (b + g) = a b + a g for every b are closed under +, so g in S is
      enough (and likewise on the right);
    - mul-associative with c in S: by left distributivity (a b) c and
      a (b c) are both additive in c, so they agree everywhere once they
      agree on S; without left but with right distributivity, a in S, by
      the mirror argument.
    Every law is in the report, and every witness given is a tuple of
    elements at which its law fails.  A law whose argument rests on laws
    that fail (additive associativity for distributivity, both
    distributive laws for multiplicative associativity) is still checked
    on S: a failure there is a witness, and otherwise the law is reported
    as not established (False, without a witness) and named in
    unchecked."""
    n = ring.size
    if n > TABLE_CAP:
        raise ValueError(f"ring size {n} exceeds the verification bound "
                         f"{TABLE_CAP}")
    add = ring.add_table()
    mul = ring.mul_table()
    idx = np.arange(n)
    axioms: dict[str, bool] = {}
    witnesses: dict[str, tuple] = {}
    unchecked = []

    def record(name, bad=None):
        axioms[name] = bad is None
        if bad is not None:
            witnesses[name] = tuple(int(x) for x in bad)

    bad = np.argwhere(add != add.T)
    record("add-commutative", bad[0] if bad.size else None)
    bad = (add[0] != idx) | (add[:, 0] != idx)
    record("zero-identity", (bad.argmax(),) if bad.any() else None)
    bad = ~(add == 0).any(axis=1)
    record("negation", (bad.argmax(),) if bad.any() else None)
    if ring.unital:
        bad = (mul[ring.one] != idx) | (mul[:, ring.one] != idx)
        record("one-identity", (bad.argmax(),) if bad.any() else None)

    gens = _additive_generators(add)
    step = max(1, _TABLE_BLOCK // n)

    def law(name, sides, order=(0, 1, 2), decides=True):
        """Check that sides(xs, y), two arrays over the rows xs and every
        z, agree for every y in S; the first (x, y, z) where they differ,
        put in the law's own order, is the witness.  Unless agreement on
        S decides the law, agreement leaves it unchecked."""
        for y in gens:
            for lo in range(0, n, step):
                xs = idx[lo:lo + step]
                lhs, rhs = sides(xs, y)
                if not (lhs == rhs).all():
                    i, z = np.argwhere(lhs != rhs)[0]
                    found = (xs[i], y, z)
                    record(name, [found[j] for j in order])
                    return
        if decides:
            record(name)
        else:
            axioms[name] = False
            unchecked.append(name)

    # (a + b) + c = a + (b + c), b in S
    law("add-associative",
        lambda a, b: (add[add[a, b]], add[a[:, None], add[b][None, :]]))
    # a (b + c) = a b + a c, c in S
    law("left-distributive",
        lambda a, c: (mul[a[:, None], add[:, c][None, :]],
                      add[mul[a], mul[a, c][:, None]]), order=(0, 2, 1),
        decides=axioms["add-associative"])
    # (a + b) c = a c + b c, b in S
    law("right-distributive",
        lambda a, b: (mul[add[a, b]], add[mul[a], mul[b][None, :]]),
        decides=axioms["add-associative"])
    if axioms["left-distributive"] or not axioms["right-distributive"]:
        # (a b) c = a (b c), c in S
        law("mul-associative",
            lambda a, c: (mul[mul[a], c],
                          mul[a[:, None], mul[:, c][None, :]]),
            order=(0, 2, 1), decides=axioms["left-distributive"])
    else:
        # (a b) c = a (b c), a in S
        law("mul-associative",
            lambda b, a: (mul[mul[a, b]], mul[a, mul[b]]), order=(1, 0, 2))
    axioms = {name: axioms[name] for name in _AXIOMS if name in axioms}
    return AxiomReport(all(axioms.values()), axioms, witnesses, n,
                       tuple(name for name in _AXIOMS if name in unchecked))


# ---------------------------------------------------------------------------
# ideals, radical, quotients

@dataclass(frozen=True)
class Ideal:
    ring: Ring
    elements: tuple[int, ...]
    sided: str  # "left", "right" or "two-sided"

    def __contains__(self, x):
        return x in set(self.elements)

    def __len__(self):
        return len(self.elements)


def _mark(out: np.ndarray, table: np.ndarray, rows, cols) -> None:
    """Set out[table[r, c]] for every r in rows and c in cols, a block of
    rows at a time, so no temporary exceeds _TABLE_BLOCK entries."""
    step = max(1, _TABLE_BLOCK // max(1, len(cols)))
    for lo in range(0, len(rows), step):
        out[table[rows[lo:lo + step, None], cols]] = True


def _closure(add: np.ndarray, actions, seed) -> np.ndarray:
    """Least subset holding 0 and seed that is closed under the additive
    table and every action table (T[:, x] lists the images of x), as a
    boolean mask.  Each round sums the whole frontier with every member and
    applies each action to it."""
    n = add.shape[0]
    mask = np.zeros(n, dtype=bool)
    mask[0] = True
    mask[np.asarray(seed, dtype=np.int64)] = True
    frontier = np.flatnonzero(mask)
    while frontier.size and not mask.all():
        grown = np.zeros(n, dtype=bool)
        _mark(grown, add, np.flatnonzero(mask), frontier)
        for table in actions:
            _mark(grown, table, np.arange(table.shape[0]), frontier)
        frontier = np.flatnonzero(grown & ~mask)
        mask |= grown
    return mask


def _lattice(add: np.ndarray, actions) -> list[tuple[int, ...]]:
    """Every subset holding 0 that is closed under the additive table and the
    action tables, as sorted element tuples ordered by (size, elements).

    Left ideals pass the multiplication table, right ideals its transpose,
    two-sided ideals both, and submodules the module's action table.  Each
    substructure is the sum of the principal closures of its elements, and
    a sum I + J of substructures is one again, so the lattice is the
    principal closures and their sums, grown one principal at a time until
    nothing new appears."""
    n = add.shape[0]
    seen = {}
    for x in range(n):
        m = _closure(add, actions, [x])
        seen.setdefault(m.tobytes(), m)
    principal = [(m, np.flatnonzero(m)) for m in seen.values()]
    layer = [m for m, _ in principal]
    while layer:
        grown = []
        for a in layer:
            members = np.flatnonzero(a)
            for p, p_members in principal:
                if not (p & ~a).any():
                    continue
                s = np.zeros(n, dtype=bool)
                _mark(s, add, members, p_members)
                if seen.setdefault(s.tobytes(), s) is s:
                    grown.append(s)
        layer = grown
    out = [tuple(int(x) for x in np.flatnonzero(m)) for m in seen.values()]
    out.sort(key=lambda t: (len(t), t))
    return out


def _ideal_actions(ring: Ring, two_sided: bool):
    mul = ring.mul_table()
    return (mul, mul.T) if two_sided else (mul,)


def _ideals(ring: Ring, sided: str) -> list[Ideal]:
    if ring.size > TABLE_CAP:
        raise ValueError(f"ideal enumeration capped at size {TABLE_CAP}")
    actions = _ideal_actions(ring, sided == "two-sided")
    return [Ideal(ring, t, sided) for t in _lattice(ring.add_table(), actions)]


def left_ideals(ring: Ring) -> list[Ideal]:
    return _ideals(ring, "left")


def two_sided_ideals(ring: Ring) -> list[Ideal]:
    """All two-sided ideals, sorted by size then by element tuple."""
    return _ideals(ring, "two-sided")


def maximal_proper(ideals: list[Ideal]) -> list[Ideal]:
    """The inclusion-maximal ideals strictly below the whole ring, in the
    order given; on a lattice from left_ideals or two_sided_ideals that is
    by size, then by element tuple."""
    if not ideals:
        return []
    full = max(len(i) for i in ideals)
    proper = [i for i in ideals if len(i) < full]
    sets = [set(i.elements) for i in proper]
    out = []
    for i, s in zip(proper, sets):
        if not any(s < t for t in sets):
            out.append(i)
    return out


def _maximal_ideals(ring: Ring) -> list[Ideal]:
    """The maximal two-sided ideals of a unital ring, in lattice order
    (none for the one-element ring; only 0 for a field_view ring)."""
    if not ring.unital:
        raise ValueError(f"{describe(ring.descriptor)} is a rng; ring "
                         "structure needs a unital ring")
    if field_view(ring) is not None:
        return [Ideal(ring, (0,), "two-sided")]
    return maximal_proper(two_sided_ideals(ring))


def radical(ring: Ring) -> Ideal:
    """The Jacobson radical of a unital ring: the intersection of its
    maximal two-sided ideals, as a finite ring's primitive ideals are its
    maximal ones."""
    members = set(range(ring.size))
    for ideal in _maximal_ideals(ring):
        members &= set(ideal.elements)
    return Ideal(ring, tuple(sorted(members)), "two-sided")


@dataclass
class RingHom:
    """A unital ring homomorphism given by its full mapping table."""
    domain: Ring
    codomain: Ring
    mapping: tuple[int, ...]

    def __post_init__(self):
        self.mapping = tuple(int(x) for x in self.mapping)
        r, s = self.domain, self.codomain
        if len(self.mapping) != r.size:
            raise ValueError("mapping must cover every element of the domain")
        m = np.array(self.mapping, dtype=np.int64)
        if (m < 0).any() or (m >= s.size).any():
            raise ValueError("mapping hits indices outside the codomain")
        add_r, mul_r = r.add_table(), r.mul_table()
        add_s, mul_s = s.add_table(), s.mul_table()
        if not (m[add_r] == add_s[m[:, None], m[None, :]]).all():
            raise ValueError("mapping does not respect addition")
        if not (m[mul_r] == mul_s[m[:, None], m[None, :]]).all():
            raise ValueError("mapping does not respect multiplication")
        if r.unital and s.unital and self.mapping[r.one] != s.one:
            raise ValueError("mapping does not send identity to identity")

    def __call__(self, x: int) -> int:
        return self.mapping[x]


def identity_hom(ring: Ring) -> RingHom:
    return RingHom(ring, ring, tuple(range(ring.size)))


def quotient(ring: Ring, ideal: Ideal) -> tuple[Ring, RingHom]:
    """Quotient by a two-sided ideal, with the canonical surjection."""
    members = np.array(sorted(set(ideal.elements)), dtype=np.int64)
    if 0 not in ideal.elements:
        raise ValueError("an ideal must contain the additive identity")
    closed = _closure(ring.add_table(), _ideal_actions(ring, True), members)
    if int(closed.sum()) != len(members):
        raise ValueError("quotient needs a two-sided ideal")
    rep = ring.add_table()[:, members].min(axis=1)   # least member of each coset
    reps, coset = np.unique(rep, return_inverse=True)
    q = _induced(ring, reps, coset, int(coset[ring.one]) if ring.unital else None)
    mapping = np.asarray(q.input_index_map)[coset]
    return q, RingHom(ring, q, mapping)


# ---------------------------------------------------------------------------
# homomorphism / isomorphism search

def _additive_levels(ring: Ring):
    """Greedy generator chain of the additive group.

    Returns a list of levels (g, m, anchor, pairs): g is the new generator, m
    its index over the previous subgroup, anchor = m*g (already in the
    previous subgroup), and pairs lists (x, h, t) with x = h + t*g for each
    element new at this level.
    """
    n = ring.size
    add = ring.add_table()
    in_sub = np.zeros(n, dtype=bool)
    in_sub[0] = True
    members = [0]
    levels = []
    while len(members) < n:
        g = int((~in_sub).argmax())
        acc, m = g, 1
        while not in_sub[acc]:
            acc = int(add[acc, g])
            m += 1
        prev = members[:]
        pairs = []
        tg = 0
        for t in range(1, m):
            tg = int(add[tg, g])
            for h in prev:
                x = int(add[h, tg])
                if in_sub[x]:
                    raise AssertionError("additive level decomposition broke")
                in_sub[x] = True
                members.append(x)
                pairs.append((x, h, t))
        levels.append((g, m, acc, pairs))
    return levels


def _hom_search(r: Ring, s: Ring, *, injective: bool):
    """The mapping tables of the homomorphisms r -> s, sorted; with
    injective set, only the first injective one the walk meets (an
    isomorphism, as the caller has checked that the sizes agree)."""
    if r.size > HOM_CAP or s.size > HOM_CAP:
        raise ValueError(f"homomorphism search capped at size {HOM_CAP}")
    add_s = s.add_table()
    mul_r = r.mul_table()
    mul_s = s.mul_table()
    levels = _additive_levels(r)
    n, sn = r.size, s.size

    # m-fold additive multiples in the codomain, per level index m
    multiple_cache: dict[int, np.ndarray] = {}

    def multiples(m):
        if m not in multiple_cache:
            base = np.arange(sn, dtype=np.int64)
            cur = np.zeros(sn, dtype=np.int64)
            for _ in range(m):
                cur = add_s[cur, base]
            multiple_cache[m] = cur
        return multiple_cache[m]

    if injective:
        order_r = _additive_orders(r)
        order_s = _additive_orders(s)

    phi = np.full(n, -1, dtype=np.int64)
    phi[0] = 0
    used = np.zeros(sn, dtype=bool)
    used[0] = True
    results = []

    unital_pair = r.unital and s.unital and r.size > 1 and s.size > 1
    # phi is additive by construction, so it is a ring hom iff it fixes 1
    # and phi(g h) = phi(g) phi(h) for every pair of additive generators;
    # each pair is checked at the first level where g, h and g h are all
    # placed, since placed values never change further down
    level_of = np.full(n, -1, dtype=np.int64)
    for idx, (_, _, _, pairs) in enumerate(levels):
        for (x, _, _) in pairs:
            level_of[x] = idx
    products = [[] for _ in levels]
    for gi in (lvl[0] for lvl in levels):
        for gj in (lvl[0] for lvl in levels):
            gg = int(mul_r[gi, gj])
            products[max(level_of[gi], level_of[gj], level_of[gg])].append(
                (gi, gj, gg))

    def assign(level_idx):
        if injective and results:
            return
        if level_idx == len(levels):
            results.append(tuple(int(v) for v in phi))
            return
        g, m, anchor, pairs = levels[level_idx]
        target = int(phi[anchor])
        candidates = np.flatnonzero(multiples(m) == target)
        for y in candidates:
            y = int(y)
            if injective and order_s[y] != order_r[g]:
                continue
            ty = [0]
            cur = 0
            for _ in range(1, m):
                cur = int(add_s[cur, y])
                ty.append(cur)
            placed = []
            ok = True
            for (x, h, t) in pairs:
                img = int(add_s[phi[h], ty[t]])
                if injective and used[img]:
                    ok = False
                    break
                phi[x] = img
                if injective:
                    used[img] = True
                placed.append((x, img))
            if ok and unital_pair and phi[r.one] >= 0 and phi[r.one] != s.one:
                ok = False
            if ok:
                ok = all(phi[gg] == mul_s[phi[gi], phi[gj]]
                         for (gi, gj, gg) in products[level_idx])
            if ok:
                assign(level_idx + 1)
            for (x, img) in placed:
                phi[x] = -1
                if injective:
                    used[img] = False
        return

    assign(0)
    return sorted(results)


def _additive_orders(ring: Ring) -> np.ndarray:
    n = ring.size
    add = ring.add_table()
    orders = np.zeros(n, dtype=np.int64)
    for a in range(n):
        x, c = a, 1
        while x != 0:
            x = int(add[x, a])
            c += 1
        orders[a] = c if a != 0 else 1
    return orders


def find_homomorphisms(r: Ring, s: Ring) -> list[RingHom]:
    """All unital homomorphisms r -> s, sorted by mapping table; ValueError
    past HOM_CAP elements."""
    if not (r.unital and s.unital):
        raise ValueError("homomorphism search expects unital rings")
    return [RingHom(r, s, m) for m in _hom_search(r, s, injective=False)]


def find_isomorphism(r: Ring, s: Ring) -> Optional[RingHom]:
    """An isomorphism r -> s if one exists, else None (deterministic pick);
    ValueError past HOM_CAP elements."""
    if r.size != s.size:
        return None
    if _fingerprint(r) != _fingerprint(s):
        return None
    maps = _hom_search(r, s, injective=True)
    return RingHom(r, s, maps[0]) if maps else None


def _fingerprint(ring: Ring):
    """Cheap isomorphism invariants."""
    mul = ring.mul_table()
    orders = _additive_orders(ring)
    unique, counts = np.unique(orders, return_counts=True)
    idempotents = int((mul.diagonal() == np.arange(ring.size)).sum())
    central = int((mul == mul.T).all(axis=1).sum())
    units = int((mul == 1).any(axis=1).sum()) if ring.unital else 0
    return (tuple(zip(unique.tolist(), counts.tolist())), idempotents, central, units)


# ---------------------------------------------------------------------------
# semisimple catalogue and decompositions

def _block_order(r: int, a: int) -> tuple[int, int, int]:
    """Catalogue order of the blocks M_r(GF(p^a)) of one prime: larger
    blocks first, full matrix blocks before field blocks of the same order."""
    return -r * r * a, -r, -a


def semisimple_catalog(p: int, k: int) -> list[RingDescriptor]:
    """Every semisimple ring of order p^k (k <= 6), one descriptor each: a
    product of blocks M_r(GF(p^a)) with the r*r*a summing to k.

    Ordered by ascending number of blocks, then block by block in
    `_block_order`, which also orders the blocks within each ring."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= k <= 6:
        raise ValueError("catalogue covers exponents 1..6")
    types = sorted(((r, a) for r in range(1, math.isqrt(k) + 1)
                    for a in range(1, k // (r * r) + 1)),
                   key=lambda t: _block_order(*t))
    profiles = []

    def rec(remaining, start, acc):
        # block indices never decrease, so each profile comes out in order
        if remaining == 0:
            profiles.append(acc)
        for i in range(start, len(types)):
            r, a = types[i]
            if r * r * a <= remaining:
                rec(remaining - r * r * a, i, acc + [types[i]])

    rec(k, 0, [])
    profiles.sort(key=lambda pr: (len(pr), [_block_order(*t) for t in pr]))
    out = []
    for profile in profiles:
        blocks = [simple_ring(r, p ** a) for r, a in profile]
        out.append(blocks[0] if len(blocks) == 1 else Product(blocks))
    return out


def prime_power_decompose(ring: Ring) -> list[Ring]:
    """Split a unital ring into its prime-power blocks via the central
    idempotents cut out by the characteristic's prime factorization."""
    if not ring.unital:
        raise ValueError("prime-power decomposition needs a unital ring")
    char = ring.characteristic()
    parts = _factorize(char)
    if len(parts) <= 1:
        return [ring]
    mul = ring.mul_table()
    out = []
    for (p, e) in sorted(parts.items()):
        q = p ** e
        rest = char // q
        # CRT integer: 1 mod q, 0 mod rest
        c = (pow(rest, -1, q) * rest) % char
        e_idx = ring.scalar_multiple(c, 1)
        if mul[e_idx, e_idx] != e_idx:
            raise AssertionError("central idempotent construction failed")
        reps = np.unique(mul[e_idx])            # the corner e R
        index = np.zeros(ring.size, dtype=np.int64)
        index[reps] = np.arange(len(reps))
        out.append(_induced(ring, reps, index, int(index[e_idx])))
    return out


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _prime_power(n: int):
    f = _factorize(n)
    if len(f) != 1:
        return None
    [(p, k)] = f.items()
    return p, k


def simple_rings(n: int) -> list[tuple[int, int]]:
    """(r, q) for each simple ring with n elements, M_r(GF(q)) with
    q^(r*r) = n: GF(n) first, then r ascending.

    By Wedderburn's theorems every finite simple ring is one of these, so
    n names none unless it is a prime power p^k, and then one per square
    r*r dividing k."""
    pp = _prime_power(n)
    if pp is None:
        return []
    p, k = pp
    return [(r, p ** (k // (r * r))) for r in range(1, math.isqrt(k) + 1)
            if k % (r * r) == 0]


def simple_ring(r: int, q: int) -> RingDescriptor:
    """The descriptor of M_r(GF(q)): the field itself when r is 1."""
    p, a = _prime_power(q)
    field = PrimeField(p) if a == 1 else GaloisField(p, a)
    return field if r == 1 else MatrixRing(field, r)


def field_view(ring: Ring) -> Optional[tuple[Ring, int]]:
    """(F, k) when the ring is the field F (k = 1) or the matrix ring
    M_k(F) over a field, else None."""
    if ring.is_field():
        return ring, 1
    if ring.kind == "matrix" and ring.inner.is_field():
        return ring.inner, ring.k
    return None


def simple_block(ring: Ring) -> tuple[int, int]:
    """(r, q) with ring isomorphic to M_r(GF(q)), for a simple ring: read
    off a field or a matrix ring over one, else matched by isomorphism
    against the simple rings of the same size."""
    view = field_view(ring)
    if view is not None:
        return view[1], view[0].size
    for r, q in simple_rings(ring.size):
        if find_isomorphism(ring, construct_ring(simple_ring(r, q))) is not None:
            return r, q
    raise ValueError(f"{describe(ring.descriptor)} is not a simple ring")


def simple_quotients(ring: Ring):
    """(M, (r, q)) for each maximal two-sided ideal M of a unital ring, in
    lattice order, with ring/M isomorphic to M_r(GF(q)).  Lazy, so a
    caller that stops early builds no further quotient; M = 0 means the
    ring itself is simple, and no quotient is built."""
    for ideal in _maximal_ideals(ring):
        simple = ring if ideal.elements == (0,) else quotient(ring, ideal)[0]
        yield ideal, simple_block(simple)


def semisimple_decompose(ring: Ring) -> list[tuple[int, int]]:
    """Matrix-block profile [(r_i, q_i)] of ring/radical(ring), one block
    per simple quotient: prime by prime (ascending), then in
    `_block_order` within a prime."""
    def key(block):
        p, a = _prime_power(block[1])
        return (p,) + _block_order(block[0], a)
    return sorted((block for _, block in simple_quotients(ring)), key=key)


# ---------------------------------------------------------------------------
# serialization

def descriptor_to_json(desc: RingDescriptor):
    if isinstance(desc, PrimeField):
        return {"kind": "prime-field", "p": desc.p}
    if isinstance(desc, GaloisField):
        return {"kind": "galois-field", "p": desc.p, "k": desc.k,
                "poly": list(desc.poly) if desc.poly is not None else None}
    if isinstance(desc, IntegersMod):
        return {"kind": "integers-mod", "n": desc.n}
    if isinstance(desc, MatrixRing):
        return {"kind": "matrix", "inner": descriptor_to_json(desc.inner), "k": desc.k}
    if isinstance(desc, UpperTriangular):
        return {"kind": "upper-triangular", "field": descriptor_to_json(desc.field),
                "k": desc.k}
    if isinstance(desc, Product):
        return {"kind": "product",
                "factors": [descriptor_to_json(f) for f in desc.factors]}
    if isinstance(desc, TableRing):
        return {"kind": "table", "add": [list(r) for r in desc.add],
                "mul": [list(r) for r in desc.mul], "one": desc.one,
                "unital": desc.unital}
    raise TypeError(f"not a ring descriptor: {desc!r}")


def descriptor_from_json(data) -> RingDescriptor:
    """The descriptor a JSON object names; a number field of another JSON
    type than _JSON_TYPES gives it (a bool is no integer) is a ValueError."""
    if not isinstance(data, dict):
        raise TypeError(f"a ring descriptor is a JSON object, "
                        f"not {type(data).__name__}")
    kind = data.get("kind")
    if kind == "prime-field":
        return PrimeField(_typed(data, "p"))
    if kind == "galois-field":
        p, k = _typed(data, "p"), _typed(data, "k")
        poly = _typed(data, "poly", None)
        return GaloisField(p, k, tuple(poly) if poly is not None else None)
    if kind == "integers-mod":
        return IntegersMod(_typed(data, "n"))
    if kind == "matrix":
        return MatrixRing(descriptor_from_json(data["inner"]), _typed(data, "k"))
    if kind == "upper-triangular":
        return UpperTriangular(descriptor_from_json(data["field"]), _typed(data, "k"))
    if kind == "product":
        return Product(tuple(descriptor_from_json(f) for f in data["factors"]))
    if kind == "table":
        return TableRing(_typed(data, "add"), _typed(data, "mul"),
                         one=_typed(data, "one", None),
                         unital=_typed(data, "unital", True))
    raise ValueError(f"unknown ring descriptor kind: {kind!r}")


def _ints(x) -> bool:
    return type(x) is list and {int}.issuperset(map(type, x))


_INT = ("an integer", lambda x: type(x) is int)
_TABLE = ("a list of lists of integers",
          lambda x: type(x) is list and all(map(_ints, x)))
# per number field of ring and module JSON: what it must be, and the test
_JSON_TYPES = {
    "p": _INT, "k": _INT, "n": _INT, "dim": _INT, "add": _TABLE, "mul": _TABLE,
    "poly": ("null or a list of integers", lambda x: x is None or _ints(x)),
    "one": ("null or an integer", lambda x: x is None or type(x) is int),
    "unital": ("true or false", lambda x: type(x) is bool)}


def _typed(data: dict, key: str, *default):
    """data[key] (or the default, when given and key is missing), if it
    has its type in _JSON_TYPES; else a one-line ValueError naming key."""
    x = data.get(key, *default) if default else data[key]
    what, ok = _JSON_TYPES[key]
    if not ok(x):
        raise ValueError(f'"{key}" must be {what}, not {_show(x)}')
    return x


def describe(desc: RingDescriptor) -> str:
    """Short human-readable name for a descriptor."""
    if isinstance(desc, PrimeField):
        return f"GF({desc.p})"
    if isinstance(desc, GaloisField):
        return f"GF({desc.p}^{desc.k})"
    if isinstance(desc, IntegersMod):
        return f"Z_{desc.n}"
    if isinstance(desc, MatrixRing):
        return f"M_{desc.k}({describe(desc.inner)})"
    if isinstance(desc, UpperTriangular):
        return f"UT_{desc.k}({describe(desc.field)})"
    if isinstance(desc, Product):
        return " x ".join(describe(f) for f in desc.factors)
    if isinstance(desc, TableRing):
        return f"table ring of size {len(desc.add)}" + ("" if desc.unital else " (rng)")
    return repr(desc)

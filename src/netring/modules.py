"""Finite abelian groups and (left) modules over finite rings.

Group elements are integers 0..size-1 with 0 the identity.  Groups built as
direct sums use a most-significant-first mixed-radix encoding over their
components (the rings' `_radix_split`/`_radix_join`), so component access is
positional and deterministic.  A module pairs a group with a ring action;
the four module axioms can be verified exhaustively, and the structured
constructors (a ring acting on itself, the column space R^k under k x k
matrices) carry their axioms by construction.
"""
from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from . import rings as _rings
from .rings import TABLE_CAP, Ring, RingHom, MatrixRing

CHECK_WORK_CAP = 200_000_000   # elementwise operations allowed per axiom sweep
EXHAUSTIVE_PAIR_CAP = 1 << 20  # |R| * |G| bound for exhaustive verification


class AbelianGroup:
    """A finite abelian group on indices 0..size-1 (0 = identity)."""

    def __init__(self, size: int, add: Callable[[int, int], int],
                 neg: Callable[[int], int], *, components=None,
                 label: str = "group", tables=None):
        self.size = size
        self._add = add
        self._neg = neg
        # tables() -> (add table, neg table) when they exist elsewhere
        self._tables = tables
        self.components = tuple(components) if components is not None else None
        self._radices = tuple(g.size for g in self.components or ())
        self.label = label
        self._add_table = None
        self._neg_table = None

    def __repr__(self):
        return f"AbelianGroup({self.label}, size={self.size})"

    def add(self, a: int, b: int) -> int:
        t = self._add_table
        if t is not None:
            return int(t[a, b])
        return self._add(a, b)

    def neg(self, a: int) -> int:
        t = self._neg_table
        if t is not None:
            return int(t[a])
        return self._neg(a)

    def add_table(self) -> np.ndarray:
        if self._add_table is None:
            if self.size > TABLE_CAP:
                raise ValueError(
                    f"group of size {self.size} exceeds the dense-table cap")
            if self._tables is not None:
                self._add_table, self._neg_table = self._tables()
                return self._add_table
            t = np.zeros((self.size, self.size), dtype=np.int64)
            for a in range(self.size):
                for b in range(self.size):
                    t[a, b] = self._add(a, b)
            self._add_table = t
            neg = np.zeros(self.size, dtype=np.int64)
            rows, cols = np.nonzero(t == 0)
            neg[rows] = cols
            self._neg_table = neg
        return self._add_table

    def parts(self, idx) -> tuple:
        """Component values of idx (an int, or an array of them)."""
        if self.components is None:
            raise TypeError("group is not a direct sum")
        return _rings._radix_split(idx, self._radices)

    def from_parts(self, parts):
        if self.components is None:
            raise TypeError("group is not a direct sum")
        return _rings._radix_join(parts, self._radices)


def cyclic(n: int) -> AbelianGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    return AbelianGroup(n, lambda a, b: (a + b) % n, lambda a: (-a) % n,
                        label=f"Z{n}")


def direct_sum(*groups: AbelianGroup) -> AbelianGroup:
    if not groups:
        raise ValueError("direct sum needs at least one component")

    def add(a, b):
        return out.from_parts([g.add(x, y) for g, x, y
                               in zip(groups, out.parts(a), out.parts(b))])

    def neg(a):
        return out.from_parts([g.neg(x) for g, x in zip(groups, out.parts(a))])

    def tables():
        cs = out.parts(np.arange(out.size, dtype=np.int64))
        add_t = out.from_parts([g.add_table()[c[:, None], c[None, :]]
                                for g, c in zip(groups, cs)])
        return add_t, np.argmax(add_t == 0, axis=1)

    label = " + ".join(g.label for g in groups)
    out = AbelianGroup(math.prod(g.size for g in groups), add, neg,
                       components=groups, label=label, tables=tables)
    return out


def additive_group(ring: Ring) -> AbelianGroup:
    return AbelianGroup(ring.size, ring.add, ring.neg,
                        label=f"add({ring.descriptor!r})",
                        tables=lambda: (ring.add_table(), ring.neg_table()))


# ---------------------------------------------------------------------------

class ModuleAxiomError(ValueError):
    """An explicit action failed a module axiom; carries the axiom name and a
    witness tuple of element indices."""

    def __init__(self, axiom: str, witness: tuple):
        self.axiom = axiom
        self.witness = witness
        super().__init__(f"module axiom violated: {axiom}, witness {witness}")


class Module:
    """A left module: `ring` acting on `group` through `action`."""

    def __init__(self, ring: Ring, group: AbelianGroup, action: Callable[[int, int], int],
                 *, label: str = "module", table=None):
        self.ring = ring
        self.group = group
        self._action = action
        self.label = label
        self._table = table   # table() -> the action table, when it exists elsewhere
        self._act_table = None
        self._annihilator = None
        # populated by the structured constructors
        self.vector_dim: Optional[int] = None
        self.base_ring: Optional[Ring] = None

    def __repr__(self):
        return f"Module({self.label}, |R|={self.ring.size}, |G|={self.group.size})"

    def act(self, r: int, g: int) -> int:
        t = self._act_table
        if t is not None:
            return int(t[r, g])
        return self._action(r, g)

    def act_table(self) -> np.ndarray:
        if self._act_table is None:
            if self._table is not None:
                self._act_table = self._table()
                return self._act_table
            pairs = self.ring.size * self.group.size
            if pairs > EXHAUSTIVE_PAIR_CAP:
                raise ValueError(
                    f"action table of {pairs} entries exceeds the cap")
            t = np.zeros((self.ring.size, self.group.size), dtype=np.int64)
            for r in range(self.ring.size):
                for g in range(self.group.size):
                    t[r, g] = self._action(r, g)
            self._act_table = t
        return self._act_table

    def annihilator(self) -> tuple[int, ...]:
        """Ring elements acting as zero on every group element."""
        if self._annihilator is None:
            out = []
            for r in range(self.ring.size):
                if all(self.act(r, g) == 0 for g in range(self.group.size)):
                    out.append(r)
            self._annihilator = tuple(out)
        return self._annihilator

    def is_faithful(self) -> bool:
        return self.annihilator() == (0,)


def construct_module(ring: Ring, group: AbelianGroup, action) -> Module:
    """Build a module from an explicit action, verifying the axioms.

    The check enumerates every instance of all four axioms (identity is
    skipped for rngs); the first failure raises ModuleAxiomError naming the
    axiom and a witness.  Verification is refused (rather than skipped) when
    the instance count is out of reach.
    """
    if callable(action):
        mod = Module(ring, group, action)
    else:
        table = np.asarray(action, dtype=np.int64)
        if table.shape != (ring.size, group.size):
            raise ValueError("action table must be |R| x |G|")
        mod = Module(ring, group, lambda r, g: int(table[r, g]),
                     table=lambda: table)
    verify_module_axioms(mod)
    return mod


def verify_module_axioms(mod: Module) -> None:
    nR, nG = mod.ring.size, mod.group.size
    if nR * nG > EXHAUSTIVE_PAIR_CAP:
        raise ValueError(
            f"|R|*|G| = {nR * nG} exceeds the exhaustive verification bound "
            f"{EXHAUSTIVE_PAIR_CAP}")
    if max(nR * nG * nG, nR * nR * nG) > CHECK_WORK_CAP:
        raise ValueError(
            "axiom sweep would exceed the work cap; use a structured "
            "constructor whose axioms hold by construction")
    A = mod.act_table()
    TG = mod.group.add_table()
    TR = mod.ring.add_table()
    MR = mod.ring.mul_table()

    for r in range(nR):
        row = A[r]
        lhs = row[TG]                       # r*(g+h)
        rhs = TG[row[:, None], row[None, :]]  # r*g + r*h
        if not (lhs == rhs).all():
            g, h = np.argwhere(lhs != rhs)[0]
            raise ModuleAxiomError("distributes-over-group-sum",
                                   (r, int(g), int(h)))

    for r in range(nR):
        lhs = A[TR[r]]                      # (r+s)*g, rows indexed by s
        rhs = TG[A[r][None, :], A]          # r*g + s*g
        if not (lhs == rhs).all():
            s, g = np.argwhere(lhs != rhs)[0]
            raise ModuleAxiomError("distributes-over-ring-sum",
                                   (r, int(s), int(g)))

    for r in range(nR):
        lhs = A[MR[r]]                      # (r*s)*g
        rhs = A[r][A]                       # r*(s*g)
        if not (lhs == rhs).all():
            s, g = np.argwhere(lhs != rhs)[0]
            raise ModuleAxiomError("associativity-of-action",
                                   (r, int(s), int(g)))

    if mod.ring.unital:
        row = A[mod.ring.one]
        if not (row == np.arange(nG)).all():
            g = int((row != np.arange(nG)).argmax())
            raise ModuleAxiomError("identity-acts-trivially",
                                   (mod.ring.one, g))


def scalar_module(ring: Ring) -> Module:
    """The ring acting on its own additive group by left multiplication."""
    mod = Module(ring, additive_group(ring), ring.mul, table=ring.mul_table,
                 label=f"scalar({_rings.describe(ring.descriptor)})")
    mod.vector_dim = 1 if ring.is_field() else None
    mod.base_ring = ring if mod.vector_dim else None
    if ring.unital:
        # r * 1 = r, so only 0 acts as zero: faithful by construction
        mod._annihilator = (0,)
    return mod


def vector_module(ring: Ring, k: int) -> Module:
    """Column space R^k acted on by the k x k matrix ring over R."""
    if k < 1:
        raise ValueError("dimension must be at least 1")
    mat = _rings.construct_ring(MatrixRing(ring.descriptor, k))
    group = direct_sum(*[additive_group(ring) for _ in range(k)])

    def act(midx: int, gidx: int) -> int:
        # column 0 of m*V, where V holds the column in column 0 and zeros
        # elsewhere: the same rule the table below evaluates on digits
        vs = group.parts(gidx)
        col = mat.from_coords([vs[r] if c == 0 else 0 for r, c in mat.slots])
        prod = mat.coords(mat.mul(midx, col))
        return group.from_parts([prod[r * k] for r in range(k)])

    # with a digit rule, numpy fills the table (and checks its size)
    table = None if mat.mul_tensor is None else (lambda: _vector_table(mat, group))
    mod = Module(mat, group, act, table=table,
                 label=f"vector({_rings.describe(ring.descriptor)}, {k})")
    mod.vector_dim = k
    mod.base_ring = ring
    # a nonzero matrix moves some basis column, so the action is faithful;
    # record that instead of scanning |M_k(R)| elements lazily
    mod._annihilator = (0,)
    return mod


def _vector_table(mat: Ring, group: AbelianGroup) -> np.ndarray:
    """The action of M_k(R) on R^k by the matrix ring's digit rule: column 0
    of m*V, as in vector_module's act.  Only the digits of column 0 enter,
    so the tensor is cut down to them; the matrices go a block at a time."""
    if mat.size * group.size > EXHAUSTIVE_PAIR_CAP:
        raise ValueError(f"action table of {mat.size * group.size} entries "
                         "exceeds the cap")
    inner, w = mat.inner, len(mat.inner.digit_moduli)
    col0 = [t * w + u for t, (_, c) in enumerate(mat.slots) if c == 0
            for u in range(w)]
    tensor = mat.mul_tensor[:, col0][:, :, col0]
    moduli = mat.digit_moduli[col0]
    cols = np.concatenate([inner.digits(v) for v in group.parts(
        np.arange(group.size, dtype=np.int64))], axis=-1)
    out = np.empty((mat.size, group.size), dtype=np.int64)
    step = max(1, _rings._TABLE_BLOCK // group.size)
    for lo in range(0, mat.size, step):
        ms = np.arange(lo, min(mat.size, lo + step))
        lmul = np.tensordot(mat.digits(ms), tensor, axes=1) % moduli
        digits = (cols @ lmul) % moduli          # (matrix, column, digit)
        out[lo:lo + step] = group.from_parts(
            [inner.from_digits(digits[..., r * w:(r + 1) * w]) for r in range(mat.k)])
    return out


def annihilator_quotient(mod: Module) -> tuple[Ring, RingHom, Module]:
    """Quotient the ring by the annihilator; the induced action is faithful."""
    ann = mod.annihilator()
    ideal = _rings.Ideal(mod.ring, ann, "two-sided")
    q, hom = _rings.quotient(mod.ring, ideal)
    preimage = [-1] * q.size
    for r in range(mod.ring.size):
        if preimage[hom(r)] < 0:
            preimage[hom(r)] = r

    def act(s: int, g: int) -> int:
        return mod.act(preimage[s], g)

    out = Module(q, mod.group, act, label=f"{mod.label}/ann")
    out.vector_dim = mod.vector_dim
    out.base_ring = mod.base_ring
    if not out.is_faithful():
        raise AssertionError("annihilator quotient failed to produce a "
                             "faithful module")
    return q, hom, out


def submodules(mod: Module) -> list[tuple[int, ...]]:
    """All submodules (as sorted index tuples), smallest first."""
    nG = mod.group.size
    if nG > TABLE_CAP:
        raise ValueError(f"submodule enumeration capped at |G| = {TABLE_CAP}")
    return _rings._lattice(mod.group.add_table(), (mod.act_table(),))


# ---------------------------------------------------------------------------
# serialization (the shapes the CLI and code files exchange)

def module_to_json(mod: Module):
    if mod.vector_dim is not None and mod.base_ring is not None:
        if mod.vector_dim == 1 and mod.ring is mod.base_ring:
            return {"kind": "scalar",
                    "ring": _rings.descriptor_to_json(mod.ring.descriptor)}
        return {"kind": "vector",
                "ring": _rings.descriptor_to_json(mod.base_ring.descriptor),
                "dim": mod.vector_dim}
    if mod.ring.size * mod.group.size <= EXHAUSTIVE_PAIR_CAP \
            and mod.group.size <= TABLE_CAP:
        return {"kind": "table",
                "ring": _rings.descriptor_to_json(mod.ring.descriptor),
                "group": mod.group.add_table().tolist(),
                "action": mod.act_table().tolist()}
    raise ValueError("module too large to serialize as a table")


def module_from_json(data) -> Module:
    if not isinstance(data, dict):
        raise TypeError(f"a module is a JSON object, "
                        f"not {type(data).__name__}")
    kind = data.get("kind")
    if kind == "scalar":
        return scalar_module(_rings.construct_ring(
            _rings.descriptor_from_json(data["ring"])))
    if kind == "vector":
        return vector_module(_rings.construct_ring(
            _rings.descriptor_from_json(data["ring"])), _rings._typed(data, "dim"))
    if kind == "table":
        ring = _rings.construct_ring(_rings.descriptor_from_json(data["ring"]))
        group = group_from_table(data["group"])
        return construct_module(ring, group, data["action"])
    raise ValueError(f"unknown module kind: {kind!r}")


def group_from_table(table) -> AbelianGroup:
    """Abelian group from an explicit addition table (0 must be identity)."""
    t = np.asarray(table, dtype=np.int64)
    n = t.shape[0]
    if t.shape != (n, n):
        raise ValueError("group table must be square")
    if not ((t[0] == np.arange(n)).all() and (t[:, 0] == np.arange(n)).all()):
        raise ValueError("index 0 must be the group identity")
    if not (t == t.T).all():
        raise ValueError("group table must be commutative")
    neg = np.zeros(n, dtype=np.int64)
    rows, cols = np.nonzero(t == 0)
    neg[rows] = cols
    return AbelianGroup(n, lambda a, b: int(t[a, b]), lambda a: int(neg[a]),
                        label=f"table group of size {n}",
                        tables=lambda: (t, neg))

"""Row reduction, span arithmetic and subspace enumeration over a finite field.

Rows are tuples of element indices of a field ring (see rings.py); a subspace
is represented by its reduced-echelon basis, stored as a tuple of rows sorted
by pivot column, which makes equal subspaces compare and hash equal.  A packed
fast path for the two-element field keeps rows as plain ints (one bit per
column) because the search loops in solver.py live on these operations.

Span sums are transform-free: ``space_sum``/``space_sum2`` start from the
first operand's basis, which is already reduced, and eliminate only the
second operand's rows against it; ``canon_space``/``rref2`` are the same
routine started from the zero space, and ``rank`` is the length of its basis.

The rank witness's elimination keeps a transform: ``eliminate`` carries a
tag with every row, on coordinate rows over every field, and
``unit_tag``/``express`` read a target's combination of tags off the basis.
"""
from __future__ import annotations

from bisect import bisect_left
from itertools import combinations, product


class FieldOps:
    """Scalar arithmetic of a field ring, unpacked into plain lists.

    List indexing beats repeated method dispatch in the elimination loops;
    the lists are the ring's own (Ring.list_tables), so a ring that is also
    verified converts its tables once.
    """

    def __init__(self, field):
        if not field.is_field():
            raise ValueError("row reduction needs a field, got a ring that is not one")
        self.field = field
        q = field.size
        self.q = q
        self.add, self.mul, self.neg = field.list_tables()
        inv = [0] * q
        for a in range(1, q):
            row = self.mul[a]
            inv[a] = row.index(1)
        self.inv = inv


def primitive_element(ops: FieldOps) -> int:
    """An element whose powers run through every nonzero element."""
    for a in range(1, ops.q):
        x, order = a, 1
        while x != 1:
            x = ops.mul[x][a]
            order += 1
        if order == ops.q - 1:
            return a
    raise AssertionError("a finite field has a primitive element")


def row_scale(ops: FieldOps, row, c):
    mul_c = ops.mul[c]
    return tuple(mul_c[x] for x in row)


def row_sub_scaled(ops: FieldOps, row, other, c):
    """row - c * other, elementwise."""
    mc = ops.mul[ops.neg[c]]
    add = ops.add
    return tuple(add[a][mc[b]] for a, b in zip(row, other))


def _leading(row):
    for j, x in enumerate(row):
        if x:
            return j
    return None


def reduce_row(ops: FieldOps, basis, pivots, row):
    """Residual of row after eliminating against an echelon basis."""
    for b, p in zip(basis, pivots):
        c = row[p]
        if c:
            row = row_sub_scaled(ops, row, b, c)
    return row


def rank(ops: FieldOps, rows) -> int:
    return len(canon_space(ops, rows))


def canon_space(ops: FieldOps, rows):
    """Canonical (hashable) form of the span of the given rows."""
    return space_sum(ops, (), rows)


def space_sum(ops: FieldOps, a, b):
    """Canonical form of span(a) + span(b), where a is already canonical.

    a is not reduced again: each row of b is reduced against the growing
    basis and, when something is left, normalized, cleared from the basis
    rows and inserted at its pivot.  The result is the unique
    reduced echelon basis, so it equals canon_space(a + b)."""
    basis = list(a)
    pivots = [_leading(row) for row in basis]
    for row in b:
        row = reduce_row(ops, basis, pivots, row)
        piv = _leading(row)
        if piv is None:
            continue
        c = row[piv]
        if c != 1:
            row = row_scale(ops, row, ops.inv[c])
        for t, other in enumerate(basis):
            coef = other[piv]
            if coef:
                basis[t] = row_sub_scaled(ops, other, row, coef)
        at = bisect_left(pivots, piv)
        pivots.insert(at, piv)
        basis.insert(at, row)
    return tuple(basis)


# ---- tagged elimination: the rank witness's rows with their combinations ----

def eliminate(ops: FieldOps, width: int, rows, tags=None, piv=None):
    """The reduced echelon form of rows of width entries, each basis row
    with the same combination of tags (by default the transform: row i's
    tag is unit row i), as pivot column -> row + tag, a list; piv, when
    given, is continued in place.  Rows that reduce to zero are dropped."""
    add, mul, neg, inv = ops.add, ops.mul, ops.neg, ops.inv
    if tags is None:
        n = len(rows)
        tags = [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]
    if piv is None:
        piv = {}
    for row, tag in zip(rows, tags):
        row = [*row, *tag]
        for p, b in piv.items():
            c = row[p]
            if c:
                mc = mul[neg[c]]
                row = [add[x][mc[y]] for x, y in zip(row, b)]
        for p in range(width):
            if row[p]:
                break
        else:
            continue
        c = row[p]
        if c != 1:
            mc = mul[inv[c]]
            row = [mc[x] for x in row]
        for other, b in list(piv.items()):
            c = b[p]
            if c:
                mc = mul[neg[c]]
                piv[other] = [add[x][mc[y]] for x, y in zip(b, row)]
        piv[p] = row
    return piv


def unit_tag(piv, width: int, j: int):
    """The tag of unit row j, None when it is outside the span: in a
    reduced echelon basis that row is the basis row at pivot j."""
    got = piv.get(j)
    if got is not None and got[:width].count(0) == width - 1:
        return tuple(got[width:])


def express(ops: FieldOps, piv, row, n: int):
    """The tag, of n entries, of row, None when it is outside the span: in
    a reduced echelon basis, row's coefficient on the basis row at pivot p
    is row[p], so subtracting them leaves zero and minus the tag."""
    add, mul, neg = ops.add, ops.mul, ops.neg
    rest = [*row, *[0] * n]
    for p, b in piv.items():
        c = row[p]
        if c:
            mc = mul[neg[c]]
            rest = [add[x][mc[y]] for x, y in zip(rest, b)]
    if any(rest[:len(row)]):
        return None
    return tuple(neg[x] for x in rest[len(row):])


# ---- packed GF(2) rows: ints, one bit per column, bit 0 = column 0 ----


def rref2(rows):
    """Echelon basis of packed rows, sorted by pivot (low bit first)."""
    return space_sum2((), rows)


def reduce2(basis, row: int) -> int:
    for b in basis:
        if row & (b & -b):
            row ^= b
    return row


def space_sum2(a, b):
    """Packed span(a) + span(b), a already a reduced echelon basis: b's
    rows are inserted into a's basis, which is not reduced again."""
    basis = list(a)
    for row in b:
        row = reduce2(basis, row)
        if row:
            piv = row & -row
            for i, other in enumerate(basis):
                if other & piv:
                    basis[i] = other ^ row
            basis.append(row)
    basis.sort(key=lambda r: r & -r)
    return tuple(basis)


# ---- enumeration of echelon forms ----

def gaussian_binomial(d: int, r: int, q: int) -> int:
    if r < 0 or r > d:
        return 0
    num = den = 1
    for i in range(r):
        num *= q ** (d - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def echelon_forms(q: int, d: int, r: int):
    """Yield every reduced echelon form with exactly r rows over F_q^d.

    A form is a tuple of coordinate rows (tuples of ints), ordered by
    pivot-column choice then by free entries.  There are
    gaussian_binomial(d, r, q) of them; r = 0 yields only the empty form.
    """
    for pivots in combinations(range(d), r):
        free = []  # (row, col) slots that may hold arbitrary entries
        pivot_set = set(pivots)
        for i in range(r):
            for j in range(pivots[i] + 1, d):
                if j not in pivot_set:
                    free.append((i, j))
        base = [[0] * d for _ in range(r)]
        for i in range(r):
            base[i][pivots[i]] = 1
        if not free:
            yield tuple(tuple(row) for row in base)
            continue
        for values in product(range(q), repeat=len(free)):
            rows = [row[:] for row in base]
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield tuple(tuple(row) for row in rows)

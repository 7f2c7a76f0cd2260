"""Transform-free span sums against the transform-tracking rref, and the
subspace enumeration the rank search walks.

rref below tracks the combination of input rows behind each basis row;
nothing in the package pays for that, so it lives here as the reference
for the span sums and for tests/test_rank_witness.py."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netring import fieldlinalg as fl
from netring.rings import GaloisField, PrimeField, construct_ring

OPS = {q: fl.FieldOps(construct_ring(desc))
       for q, desc in ((2, PrimeField(2)), (3, PrimeField(3)),
                       (4, GaloisField(2, 2)))}


def rref(ops, rows):
    """Reduced echelon form with the reducing transform.

    Returns (basis, transform, pivots): basis[i] has leading 1 in column
    pivots[i] and zeros in every other pivot column, and transform[i] holds
    the combination of the input rows that produces basis[i].
    """
    n = len(rows)
    basis = []
    transform = []
    pivots = []
    for i, row in enumerate(rows):
        combo = tuple(1 if j == i else 0 for j in range(n))
        for b, t, p in zip(basis, transform, pivots):
            c = row[p]
            if c:
                row = fl.row_sub_scaled(ops, row, b, c)
                combo = fl.row_sub_scaled(ops, combo, t, c)
        piv = next((j for j, x in enumerate(row) if x), None)
        if piv is None:
            continue
        c = ops.inv[row[piv]]
        row = fl.row_scale(ops, row, c)
        combo = fl.row_scale(ops, combo, c)
        # clear this pivot from earlier basis rows
        for t in range(len(basis)):
            coef = basis[t][piv]
            if coef:
                basis[t] = fl.row_sub_scaled(ops, basis[t], row, coef)
                transform[t] = fl.row_sub_scaled(ops, transform[t], combo,
                                                 coef)
        basis.append(row)
        transform.append(combo)
        pivots.append(piv)
    order = sorted(range(len(basis)), key=lambda t: pivots[t])
    basis = [basis[t] for t in order]
    transform = [transform[t] for t in order]
    pivots = [pivots[t] for t in order]
    return basis, transform, pivots


def pack2(row) -> int:
    """A GF(2) row of 0/1 entries as a packed int, bit j for column j."""
    acc = 0
    for j, x in enumerate(row):
        if x:
            acc |= 1 << j
    return acc


@st.composite
def row_pairs(draw):
    q = draw(st.sampled_from(sorted(OPS)))
    width = draw(st.integers(1, 5))
    rows = st.lists(st.tuples(*[st.integers(0, q - 1)] * width), max_size=5)
    return q, draw(rows), draw(rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(row_pairs())
def test_span_sums_match_rref(case):
    q, a, b = case
    ops = OPS[q]
    want = tuple(rref(ops, a + b)[0])
    assert fl.canon_space(ops, a + b) == want
    assert fl.space_sum(ops, fl.canon_space(ops, a), b) == want
    if q == 2:
        pa, pb = [pack2(r) for r in a], [pack2(r) for r in b]
        assert fl.space_sum2(fl.rref2(pa), pb) == \
            tuple(pack2(r) for r in want)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(row_pairs())
def test_rref_transform_combines_the_input_rows(case):
    q, a, b = case
    ops, rows = OPS[q], a + b
    basis, transform, _ = rref(ops, rows)
    for row, combo in zip(basis, transform):
        acc = (0,) * len(row)
        for c, r in zip(combo, rows):
            acc = fl.row_sub_scaled(ops, acc, r, ops.neg[c])
        assert acc == row


@pytest.mark.parametrize("q", sorted(OPS))
def test_echelon_forms_give_every_subspace_of_one_dimension_once(q):
    ops = OPS[q]
    for d in range(5):
        for r in range(d + 1):
            forms = list(fl.echelon_forms(q, d, r))
            assert len(set(forms)) == len(forms) == \
                fl.gaussian_binomial(d, r, q)
            assert all(len(f) == r and fl.canon_space(ops, f) == f
                       for f in forms)


@pytest.mark.parametrize("q", sorted(OPS))
def test_primitive_element_generates_the_nonzero_elements(q):
    ops = OPS[q]
    a, x, seen = fl.primitive_element(ops), 1, set()
    for _ in range(q - 1):
        x = ops.mul[x][a]
        seen.add(x)
    assert seen == set(range(1, q))

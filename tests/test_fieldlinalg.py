"""Transform-free span sums against the transform-tracking rref."""
from hypothesis import given, settings
from hypothesis import strategies as st

from netring import fieldlinalg as fl
from netring.rings import GaloisField, PrimeField, construct_ring

OPS = {q: fl.FieldOps(construct_ring(desc))
       for q, desc in ((2, PrimeField(2)), (3, PrimeField(3)),
                       (4, GaloisField(2, 2)))}


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
    want = tuple(fl.rref(ops, a + b)[0])
    assert fl.canon_space(ops, a + b) == want
    assert fl.space_sum(ops, fl.canon_space(ops, a), b) == want
    if q == 2:
        pa, pb = [fl.pack2(r) for r in a], [fl.pack2(r) for r in b]
        assert fl.space_sum2(fl.rref2(pa), pb) == \
            tuple(fl.pack2(r) for r in want)

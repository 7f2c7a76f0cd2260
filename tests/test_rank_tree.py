"""The rank search tree, pinned.

The node, receiver-check and memo-hit counts and the witness codes below
are fixed values, not properties.  The tree holds, per searched edge, the
largest subspaces its tail allows, and at a claimed position one per
message-symmetry orbit; a dead end jumps back to the deepest position its
failures read.  A change to how the engine computes a node must still
walk that tree in the same order and pick the same first solution; a
change that prunes the tree further re-pins the counts.
"""
import dataclasses

import pytest

from netring import codes, transforms
from netring.networks import choose_two_network, dim_n_network, m_network
from netring.rings import GaloisField, MatrixRing, PrimeField, construct_ring
from netring.solver import solve_scalar

GF2, GF3, GF5 = PrimeField(2), PrimeField(3), PrimeField(5)
GF4 = GaloisField(2, 2)

CHOOSE_TWO_4_GF3 = {'decodings': [['t1_2', 'm1', [0, 1]],
                                  ['t1_2', 'm2', [1, 0]],
                                  ['t1_3', 'm1', [2, 1]],
                                  ['t1_3', 'm2', [1, 0]],
                                  ['t1_4', 'm1', [1, 1]],
                                  ['t1_4', 'm2', [1, 0]],
                                  ['t2_3', 'm1', [1, 0]],
                                  ['t2_3', 'm2', [2, 1]],
                                  ['t2_4', 'm1', [1, 0]],
                                  ['t2_4', 'm2', [1, 2]],
                                  ['t3_4', 'm1', [2, 2]],
                                  ['t3_4', 'm2', [2, 1]]],
                    'edges': [['s', 'v1', 0, [0, 1]], ['s', 'v2', 0, [1, 0]],
                              ['s', 'v3', 0, [1, 1]], ['s', 'v4', 0, [1, 2]],
                              ['v1', 't1_2', 0, [1]], ['v1', 't1_3', 0, [1]],
                              ['v1', 't1_4', 0, [1]], ['v2', 't1_2', 0, [1]],
                              ['v2', 't2_3', 0, [1]], ['v2', 't2_4', 0, [1]],
                              ['v3', 't1_3', 0, [1]], ['v3', 't2_3', 0, [1]],
                              ['v3', 't3_4', 0, [1]], ['v4', 't1_4', 0, [1]],
                              ['v4', 't2_4', 0, [1]], ['v4', 't3_4', 0, [1]]],
                    'module': {'kind': 'scalar',
                               'ring': {'kind': 'prime-field', 'p': 3}}}

CHOOSE_TWO_5_GF4 = {'decodings': [['t1_2', 'm1', [0, 1]],
                                  ['t1_2', 'm2', [1, 0]],
                                  ['t1_3', 'm1', [1, 1]],
                                  ['t1_3', 'm2', [1, 0]],
                                  ['t1_4', 'm1', [2, 1]],
                                  ['t1_4', 'm2', [1, 0]],
                                  ['t1_5', 'm1', [3, 1]],
                                  ['t1_5', 'm2', [1, 0]],
                                  ['t2_3', 'm1', [1, 0]],
                                  ['t2_3', 'm2', [1, 1]],
                                  ['t2_4', 'm1', [1, 0]],
                                  ['t2_4', 'm2', [3, 3]],
                                  ['t2_5', 'm1', [1, 0]],
                                  ['t2_5', 'm2', [2, 2]],
                                  ['t3_4', 'm1', [3, 2]],
                                  ['t3_4', 'm2', [2, 2]],
                                  ['t3_5', 'm1', [2, 3]],
                                  ['t3_5', 'm2', [3, 3]],
                                  ['t4_5', 'm1', [3, 2]],
                                  ['t4_5', 'm2', [1, 1]]],
                    'edges': [['s', 'v1', 0, [0, 1]], ['s', 'v2', 0, [1, 0]],
                              ['s', 'v3', 0, [1, 1]], ['s', 'v4', 0, [1, 2]],
                              ['s', 'v5', 0, [1, 3]], ['v1', 't1_2', 0, [1]],
                              ['v1', 't1_3', 0, [1]], ['v1', 't1_4', 0, [1]],
                              ['v1', 't1_5', 0, [1]], ['v2', 't1_2', 0, [1]],
                              ['v2', 't2_3', 0, [1]], ['v2', 't2_4', 0, [1]],
                              ['v2', 't2_5', 0, [1]], ['v3', 't1_3', 0, [1]],
                              ['v3', 't2_3', 0, [1]], ['v3', 't3_4', 0, [1]],
                              ['v3', 't3_5', 0, [1]], ['v4', 't1_4', 0, [1]],
                              ['v4', 't2_4', 0, [1]], ['v4', 't3_4', 0, [1]],
                              ['v4', 't4_5', 0, [1]], ['v5', 't1_5', 0, [1]],
                              ['v5', 't2_5', 0, [1]], ['v5', 't3_5', 0, [1]],
                              ['v5', 't4_5', 0, [1]]],
                    'module': {'kind': 'scalar',
                               'ring': {'k': 2,
                                        'kind': 'galois-field',
                                        'p': 2,
                                        'poly': None}}}

VECTOR_CHOOSE_TWO_3_GF2 = {'decodings': [['t1_2', 'm1', [1, 0]],
                                         ['t1_2', 'm2', [0, 1]],
                                         ['t1_3', 'm1', [1, 0]],
                                         ['t1_3', 'm2', [1, 1]],
                                         ['t2_3', 'm1', [1, 1]],
                                         ['t2_3', 'm2', [1, 0]]],
                           'edges': [['s', 'v1', 0, [1, 0]],
                                     ['s', 'v2', 0, [0, 1]],
                                     ['s', 'v3', 0, [1, 1]],
                                     ['v1', 't1_2', 0, [1]],
                                     ['v1', 't1_3', 0, [1]],
                                     ['v2', 't1_2', 0, [1]],
                                     ['v2', 't2_3', 0, [1]],
                                     ['v3', 't1_3', 0, [1]],
                                     ['v3', 't2_3', 0, [1]]],
                           'module': {'dim': 2,
                                      'kind': 'vector',
                                      'ring': {'kind': 'prime-field', 'p': 2}}}

def _as_vector(res):
    """The result with its M_k(F) witness read back as a vector code."""
    return dataclasses.replace(
        res, code=transforms.matrix_scalar_to_vector(res.code))


# (id, search, status, nodes, receiver_checks, memo_hits, witness)
CASES = [
    ("m/GF(3)", lambda: solve_scalar(m_network(), construct_ring(GF3)),
     "exhausted-unsolvable", 25, 18, 0, None),
    ("m/GF(4)", lambda: solve_scalar(m_network(), construct_ring(GF4)),
     "exhausted-unsolvable", 29, 22, 0, None),
    ("m/GF(5)", lambda: solve_scalar(m_network(), construct_ring(GF5)),
     "exhausted-unsolvable", 33, 26, 0, None),
    ("choose-two(4)/GF(3)",
     lambda: solve_scalar(choose_two_network(4), construct_ring(GF3)),
     "solved", 7, 9, 3, CHOOSE_TWO_4_GF3),
    ("choose-two(5)/GF(4)",
     lambda: solve_scalar(choose_two_network(5), construct_ring(GF4)),
     "solved", 9, 14, 6, CHOOSE_TWO_5_GF4),
    ("dim-n(2)/GF(2)",
     lambda: solve_scalar(dim_n_network(2), construct_ring(GF2)),
     "exhausted-unsolvable", 8, 10, 0, None),
    ("vector choose-two(3)/GF(2)^2",
     lambda: _as_vector(solve_scalar(choose_two_network(3),
                                     construct_ring(MatrixRing(GF2, 2)))),
     "solved", 20, 10, 12, VECTOR_CHOOSE_TWO_3_GF2),
]


@pytest.mark.parametrize("search,status,nodes,checks,hits,witness",
                         [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_rank_search_tree_is_pinned(search, status, nodes, checks, hits,
                                    witness):
    res = search()
    assert res.status == status
    assert res.stats["strategy"] == "rank"
    assert (res.stats["nodes"], res.stats["receiver_checks"],
            res.stats["memo_hits"]) == (nodes, checks, hits)
    if witness is None:
        assert res.code is None
    else:
        assert codes.code_to_json(res.code) == witness


def test_m_network_over_m2_gf3_is_solved():
    # out of reach of a search that tried every subspace assignment
    net = m_network()
    res = solve_scalar(net, construct_ring(MatrixRing(GF3, 2)))
    assert res.status == "solved"
    assert res.stats["strategy"] == "rank"
    assert (res.stats["nodes"], res.stats["receiver_checks"],
            res.stats["memo_hits"], res.stats["orbit_skips"]) == \
        (16557, 16601, 0, 3906)
    assert codes.verify_solution(net, res.code).solved

"""Linear codes on networks, their verification, and rank entropies.

A code fixes, for every edge, one ring coefficient per input of its tail
node, and for every (receiver, demanded message) one coefficient per input of
the receiver; coefficient lists are aligned with Network.inputs order.  Codes
are checked two independent ways: symbolically, by propagating rows of ring
coefficients and comparing each decode against the demanded unit row, and
semantically, by evaluating every assignment of group values to the messages.

The symbolic check multiplies whole rows at once.  Over a compound ring
(Galois field, matrix, upper-triangular or product ring) a row is an array
of the ring's flat residue digits, one line per message.  A node's input
rows are stacked side by side once, into one (messages, t*D) block for
its t inputs of D digits, and an edge or a decode out of it is one matmul:
the block times the stacked left-multiplication matrices c . T of its
coefficients (rings.py), reduced mod the digit moduli.  Each coefficient
tuple's (t*D, D) stack is built once per code; a tuple with the ring's one
at input j and zero elsewhere takes block j as it is, since L_one is the
identity and L_0 zero mod the moduli and the input rows are reduced
already.  Residue rings (one % per product), rings whose dense
tables already exist (a search just built them) and rings with no digit
rule keep the scalar rule on index tuples, where a table lookup or a single
% beats setting up a matmul.  Where the dense tables exist the scalar rule
reads them as plain nested lists (Ring.list_tables, converted once per ring
and shared with fieldlinalg.FieldOps), not through ring.add/ring.mul,
which index numpy one scalar at a time; the lists are never built for a
ring that has no tables yet.  All rules give the same index tuples, checks
and failure reports.

The semantic check evaluates a chunk of message assignments at a time with
1-D takes: a sum a + b is entry a * G + b of the group's flattened G x G
addition table, and every input, the first and zero coefficients too, goes
through the action and addition tables, so the check reads nothing of the
symbolic rule.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import fieldlinalg as fl
from . import modules as _modules
from . import rings as _rings
from .modules import Module
from .networks import Edge, Network, _name, _show


class LinearCode:
    def __init__(self, module: Module, edge_coeffs, decodings):
        self.module = module
        self.edge_coeffs = {e if isinstance(e, Edge) else Edge(*e): tuple(c)
                            for e, c in dict(edge_coeffs).items()}
        self.decodings = {(str(r), str(m)): tuple(c)
                          for (r, m), c in dict(decodings).items()}

    def __repr__(self):
        return (f"LinearCode({self.module.label}, {len(self.edge_coeffs)} edges, "
                f"{len(self.decodings)} decodings)")


def check_shape(net: Network, code: LinearCode) -> list:
    """Arity and range validation of a code against its network, in one
    pass over the edges, in declaration order, and the decodings; returns
    the edge coefficients as a list by edge id (networks module notes).
    The range is tested over every coefficient at once first; only a code
    with one outside the ring tests them slot by slot, so that the first
    bad slot is the one reported."""
    cn = net.compiled()
    n = code.module.ring.size
    edge_coeffs, decodings = code.edge_coeffs, code.decodings
    values = set().union(*edge_coeffs.values(), *decodings.values())
    outside = bool(values) and (min(values) < 0 or max(values) >= n)
    coeffs = [None] * len(cn.edges)
    for e, i in zip(net.edges, cn.ids):
        got = edge_coeffs.get(e)
        if got is None:
            raise ValueError(f"edge {e} has no coefficients")
        want = len(cn.inputs[cn.tails[i]])
        if len(got) != want:
            raise ValueError(f"edge {e} expects {want} coefficients, got {len(got)}")
        if outside and any(not 0 <= c < n for c in got):
            raise ValueError(f"edge {e} has coefficients outside the ring")
        coeffs[i] = got
    for r, v, _ in cn.receivers:
        want = len(cn.inputs[v])
        for m in net.demands[r]:
            d = decodings.get((r, m))
            if d is None:
                raise ValueError(f"no decoding for message {m} at receiver {r}")
            if len(d) != want:
                raise ValueError(
                    f"decoding ({r}, {m}) expects {want} coefficients, got {len(d)}")
            if outside and any(not 0 <= c < n for c in d):
                raise ValueError(f"decoding ({r}, {m}) leaves the ring")
    return coeffs


@dataclass
class Verdict:
    solved: bool
    checks: dict
    failure: Optional[dict]
    method: str

    def __str__(self):
        head = f"{self.method}: " + ("all demands decode" if self.solved
                                     else "FAILED")
        if self.failure:
            head += f" ({self.failure})"
        return head


def unit_row(position: int, width: int, one: int = 1) -> tuple[int, ...]:
    return tuple(one if i == position else 0 for i in range(width))


def _combine(ring, coeffs, rows):
    """Sum of coeff * row over the ring, elementwise, by ring.add/ring.mul."""
    width = len(rows[0])
    acc = [0] * width
    for c, row in zip(coeffs, rows):
        if c == 0:
            continue
        for i, x in enumerate(row):
            if x:
                acc[i] = ring.add(acc[i], ring.mul(c, x))
    return tuple(acc)


def _combine_lists(add, mul, coeffs, rows):
    """_combine read from list tables, add[a][b] and mul[a][b]; index 0 is
    zero in every ring, so a zero entry adds and multiplies to itself."""
    acc = None
    for c, row in zip(coeffs, rows):
        if c:
            mc = mul[c]
            acc = ([mc[x] for x in row] if acc is None else
                   [add[a][mc[x]] for a, x in zip(acc, row)])
    return (0,) * len(rows[0]) if acc is None else tuple(acc)


class _Rows:
    """Rows of ring elements over the messages, under the rule the module
    notes pick for the ring: index tuples combined from the list tables or
    by ring.add/ring.mul, or digit arrays (messages x flat digits) combined
    by one matmul of a node's input block."""

    def __init__(self, code: LinearCode, width: int):
        ring = code.module.ring
        self.ring = ring
        built = ring.tables_built()
        self.digit = (bool(ring.coord_rings) and not built
                      and ring.mul_tensor is not None)
        if self.digit:
            used = sorted({c for cs in code.edge_coeffs.values() for c in cs}
                          | {c for cs in code.decodings.values() for c in cs})
            self.slot = {c: i for i, c in enumerate(used)}
            self.lmul = ring.left_mul_matrices(used)
            self.stacks = {}   # coefficient tuple -> its stack, or a slice
            # compound rings are unital: every unit row holds ring.one
            self.units = np.zeros((width, width, len(ring.digit_moduli)), np.int64)
            self.units[np.arange(width), np.arange(width)] = ring.digits([ring.one])
            self.combine, self.same = self._combine_digits, _same_digits
        else:
            self.units = [unit_row(p, width, ring.one) for p in range(width)]
            self.combine = (partial(_combine_lists, *ring.list_tables()[:2])
                            if built else partial(_combine, ring))
            self.same = operator.eq

    def _stack(self, coeffs):
        """The (t*D, D) stack of L_c over a tuple of t coefficients, or
        for ring.one at input j and zero elsewhere the slice of block j
        (module notes)."""
        d = self.lmul.shape[-1]
        one = self.ring.one
        if coeffs.count(0) == len(coeffs) - 1 and one in coeffs:
            j = coeffs.index(one)
            return slice(j * d, (j + 1) * d)
        return self.lmul[[self.slot[c] for c in coeffs]].reshape(-1, d)

    def _combine_digits(self, coeffs, block):
        stack = self.stacks.get(coeffs)
        if stack is None:
            stack = self.stacks[coeffs] = self._stack(coeffs)
        if isinstance(stack, slice):
            return block[:, stack]
        return block @ stack % self.ring.digit_moduli

    def gather(self, inputs, edge_rows):
        """The rows of int inputs (networks module notes), edge_rows by
        edge id: a list, or under the digit rule one (messages, t*D)
        block."""
        units = self.units
        rows = [edge_rows[x] if x >= 0 else units[~x] for x in inputs]
        return np.concatenate(rows, axis=1) if self.digit else rows

    def indices(self, rows) -> list[tuple[int, ...]]:
        """Index tuples of a list of rows."""
        if not self.digit:
            return list(rows)
        if not rows:
            return []
        return [tuple(r) for r in self.ring.from_digits(np.stack(rows)).tolist()]


def _same_digits(a, b) -> bool:
    return bool(np.array_equal(a, b))


def _propagate(net: Network, code: LinearCode) -> tuple[_Rows, list]:
    """The code's rows, checked by check_shape, and its per-edge rows by
    edge id, in topological order.  A node's input rows are gathered once,
    for all its out-edges: its in-edges come before them."""
    coeffs = check_shape(net, code)
    rows = _Rows(code, len(net.message_names))
    cn = net.compiled()
    if cn.edges and not rows.ring.unital:
        # the first edge's tail reads messages, whose unit rows need a one
        raise ValueError("symbolic rows need a unital ring; "
                         "use semantic_verify for rngs")
    combine = rows.combine
    out = []
    inputs_of = {}     # node -> its input rows
    for e, tail in enumerate(cn.tails):
        in_rows = inputs_of.get(tail)
        if in_rows is None:
            in_rows = inputs_of[tail] = rows.gather(cn.inputs[tail], out)
        out.append(combine(coeffs[e], in_rows))
    return rows, out


def transfer_vectors(net: Network, code: LinearCode) -> dict[Edge, tuple[int, ...]]:
    """Per-edge rows of ring coefficients, indexed by message order."""
    rows, by_edge = _propagate(net, code)
    return dict(zip(net.compiled().edges, rows.indices(by_edge)))


def verify_solution(net: Network, code: LinearCode) -> Verdict:
    """Symbolic check: every decode equals the demanded message's unit row.

    Requires a faithful module: over one, a coefficient identity is the same
    thing as correctness of the induced map on values, so the unit-row test
    is exact.  Unfaithful inputs are rejected; quotient the ring by the
    annihilator (modules.annihilator_quotient) and verify that code instead.
    """
    if not code.module.is_faithful():
        ann = code.module.annihilator()
        raise ValueError(
            f"module is not faithful (annihilator {ann}); apply "
            "annihilator_quotient and verify the induced code")
    rows, by_edge = _propagate(net, code)
    cn = net.compiled()
    ring = code.module.ring
    msgs = net.message_names
    units, combine, same = rows.units, rows.combine, rows.same
    checks = {}
    failure = None
    for r, v, demand in cn.receivers:
        in_rows = rows.gather(cn.inputs[v], by_edge)
        for m in demand:
            got = combine(code.decodings[(r, msgs[m])], in_rows)
            ok = same(got, units[m])
            checks[(r, msgs[m])] = ok
            if not ok and failure is None:
                [decoded] = rows.indices([got])
                failure = {"receiver": r, "message": msgs[m],
                           "decoded_row": decoded,
                           "expected_row": unit_row(m, len(msgs), ring.one)}
    return Verdict(all(checks.values()), checks, failure, "coefficient")


SEMANTIC_CAP = 1 << 24     # message assignments semantic_verify takes
SEMANTIC_CHUNK = 1 << 15   # assignments evaluated at once


def semantic_verify(net: Network, code: LinearCode) -> Verdict:
    """Ground-truth check: evaluate the code on every message assignment,
    SEMANTIC_CHUNK at a time; ValueError past SEMANTIC_CAP assignments."""
    coeffs = check_shape(net, code)
    cn = net.compiled()
    module = code.module
    G = module.group.size
    msgs = net.message_names
    m = len(msgs)
    total = G ** m
    if total > SEMANTIC_CAP:
        raise ValueError(f"{total} assignments exceed the semantic cap "
                         f"{SEMANTIC_CAP}")
    act = module.act_table()
    gadd = module.group.add_table().ravel()   # a + b at a * G + b
    weights = [G ** (m - 1 - i) for i in range(m)]
    checks = {}
    failure = None
    for base in range(0, total, SEMANTIC_CHUNK):
        count = min(SEMANTIC_CHUNK, total - base)
        idx = np.arange(base, base + count, dtype=np.int64)
        val = [(idx // w) % G for w in weights]
        rows = []

        def value(cs, inputs):
            """What an edge or a decoding computes from its inputs."""
            acc = np.zeros(count, dtype=np.int64)
            for c, x in zip(cs, inputs):
                acc *= G
                acc += act[c].take(rows[x] if x >= 0 else val[~x])
                acc = gadd.take(acc)
            return acc

        for e, tail in enumerate(cn.tails):
            rows.append(value(coeffs[e], cn.inputs[tail]))
        for r, v, demand in cn.receivers:
            for i in demand:
                key = (r, msgs[i])
                acc = value(code.decodings[key], cn.inputs[v])
                ok = bool((acc == val[i]).all())
                checks[key] = checks.get(key, True) and ok
                if not ok and failure is None:
                    bad = int((acc != val[i]).argmax())
                    failure = {
                        "receiver": r, "message": msgs[i],
                        "assignment": {name: int(got[bad])
                                       for name, got in zip(msgs, val)},
                        "decoded": int(acc[bad]), "expected": int(val[i][bad]),
                    }
    return Verdict(all(checks.values()), checks, failure, "semantic")


# ---------------------------------------------------------------------------
# stock codes

def explicit_m_network_code():
    """The known solution of the four-receiver two-source network: a scalar
    code over the ring of 2x2 matrices with entries mod 2."""
    from .networks import m_network
    net = m_network()
    ring = _rings.construct_ring(_rings.MatrixRing(_rings.PrimeField(2), 2))
    module = _modules.scalar_module(ring)
    E = {(r, c): ring.matrix_unit(r, c) for r in range(2) for c in range(2)}
    one, zero = ring.one, 0

    edge_coeffs = {
        # sources: inputs are the owned message pairs
        Edge("1", "3"): (E[0, 0], E[1, 0]),   # first components of W and X
        Edge("1", "4"): (E[0, 1], E[1, 1]),   # second components of W and X
        Edge("2", "4"): (E[0, 1], E[1, 1]),
        Edge("2", "5"): (E[0, 0], E[1, 0]),
        # node 4 mixes its two inputs four different ways
        Edge("4", "6"): (E[0, 0], E[1, 0]),
        Edge("4", "7"): (E[0, 0], E[1, 1]),
        Edge("4", "8"): (E[0, 1], E[1, 0]),
        Edge("4", "9"): (E[0, 1], E[1, 1]),
    }
    for t in ("6", "7", "8", "9"):
        edge_coeffs[Edge("3", t)] = (one,)
        edge_coeffs[Edge("5", t)] = (one,)

    # receiver inputs arrive ordered (from node 3, from node 4, from node 5)
    decodings = {
        ("6", "W"): (E[0, 0], E[1, 0], zero),
        ("6", "Y"): (zero, E[1, 1], E[0, 0]),
        ("7", "W"): (E[0, 0], E[1, 0], zero),
        ("7", "Z"): (zero, E[1, 1], E[0, 1]),
        ("8", "X"): (E[0, 1], E[1, 0], zero),
        ("8", "Y"): (zero, E[1, 1], E[0, 0]),
        ("9", "X"): (E[0, 1], E[1, 0], zero),
        ("9", "Z"): (zero, E[1, 1], E[0, 1]),
    }
    return net, LinearCode(module, edge_coeffs, decodings)


def routing_code_dim_n(n: int, field):
    """The dimension-n network and its component-routing vector solution.

    Each source spreads the j-th components of its n messages over its j-th
    outgoing edge; the bottleneck forwards, per receiver, the component each
    demanded message still misses."""
    from .networks import dim_n_network
    net = dim_n_network(n)
    module = _modules.vector_module(field, n)
    mat = module.ring
    E = {(r, c): mat.matrix_unit(r, c) for r in range(n) for c in range(n)}
    edge_coeffs = {}
    decodings = {}
    tuples = {}
    for r, wanted in net.demands.items():
        # receiver r demands x_{k+1}_{t[k]}: recover its index tuple
        t = tuple(int(m.split("_")[1]) for m in wanted)
        tuples[r] = t
    for e in net.edges:
        tail = e.tail
        if tail.startswith("a"):
            # inputs: the n owned messages x_i_1..x_i_n in declaration order
            j = e.ordinal if e.head != "z" else n - 1  # component carried
            edge_coeffs[e] = tuple(E[k, j] for k in range(n))
        elif tail.startswith("b"):
            # inputs: the n-1 parallel edges from the source, by ordinal
            edge_coeffs[e] = tuple(1 if o == e.ordinal else 0
                                   for o in range(n - 1))
        elif tail == "z":
            # inputs: one edge from each source, sorted a1 < a2 < ...
            t = tuples[e.head]
            edge_coeffs[e] = tuple(E[k, t[k] - 1] for k in range(n))
        else:
            raise AssertionError(f"unexpected tail {tail}")
    for r, wanted in net.demands.items():
        t = tuples[r]
        for k, msg in enumerate(wanted):  # msg = x_{k+1}_{t[k]}
            row = []
            for ref in net.in_edges(r):   # a receiver owns no messages
                if ref.tail == "z":
                    row.append(E[n - 1, k])
                elif ref.tail == f"b{k + 1}":
                    j = ref.ordinal  # carries component j of the k-th source
                    row.append(E[j, t[k] - 1])
                else:
                    row.append(0)
            decodings[(r, msg)] = tuple(row)
    return net, LinearCode(module, edge_coeffs, decodings)


# ---------------------------------------------------------------------------
# rank entropy

@dataclass
class EntropyReport:
    variables: tuple
    rank: int
    field_size: int
    dimension: int
    message_count: int

    @property
    def value(self) -> int:
        """Entropy in units of log(field size)."""
        return self.rank


def _field_ops(module: Module) -> fl.FieldOps:
    if module.vector_dim is None or module.base_ring is None:
        raise ValueError("rank entropy needs a vector code over a field")
    return fl.FieldOps(module.base_ring)


def variable_rows(net: Network, code: LinearCode, var,
                  transfers=None) -> list[tuple[int, ...]]:
    """Field-level rows of a variable: a message name or an edge.

    Expands ring coefficients into dimension-many rows over F^(k*messages),
    so stacking variables and taking the rank measures their joint entropy.
    transfers, the code's transfer_vectors, may be passed in by callers that
    expand many edges of one code.
    """
    module = code.module
    k = module.vector_dim
    msgs = net.message_names
    width = k * len(msgs)
    if isinstance(var, str) and var in msgs:
        base = msgs.index(var) * k
        return [tuple(1 if j == base + a else 0 for j in range(width))
                for a in range(k)]
    edge = var if isinstance(var, Edge) else Edge(*var)
    if transfers is None:
        transfers = transfer_vectors(net, code)
    row = transfers[edge]
    if k == 1:
        return [tuple(row)]
    # line a, column (message, b): entry (a, b) of that message's coefficient
    entries = module.ring.coords(np.asarray(row, dtype=np.int64))
    lines = entries.reshape(len(row), k, k).transpose(1, 0, 2).reshape(k, width)
    return [tuple(line) for line in lines.tolist()]


def _coeff_block(module: Module, c: int):
    if module.vector_dim == 1:
        return ((c,),)
    return module.ring.mat_entries(c)


def entropy_of(net: Network, code: LinearCode, variables) -> EntropyReport:
    """Joint entropy (in log-|F| units) of edge values and/or messages."""
    ops = _field_ops(code.module)
    msgs = set(net.message_names)
    transfers = None
    if any(not (isinstance(v, str) and v in msgs) for v in variables):
        transfers = transfer_vectors(net, code)
    rows = []
    for var in variables:
        rows.extend(variable_rows(net, code, var, transfers))
    return EntropyReport(tuple(str(v) for v in variables), fl.rank(ops, rows),
                         ops.q, code.module.vector_dim, len(net.messages))


# ---------------------------------------------------------------------------
# serialization

def code_to_json(code: LinearCode):
    return {
        "module": _modules.module_to_json(code.module),
        "edges": sorted([[e.tail, e.head, e.ordinal, list(c)]
                         for e, c in code.edge_coeffs.items()]),
        "decodings": sorted([[r, m, list(c)]
                             for (r, m), c in code.decodings.items()]),
    }


def code_from_json(data) -> LinearCode:
    """The code a JSON object describes.  Names follow the network rule (a
    string, or an integer as its decimal text), an ordinal and every
    coefficient are JSON integers and not bools, and an edge or a
    (receiver, message) listed twice is a ValueError naming it."""
    module = _modules.module_from_json(data["module"])
    edges, decs = {}, {}
    for t, h, o, c in data["edges"]:
        if type(o) is not int:
            raise ValueError(f"edge {_show(t)}->{_show(h)} has the ordinal "
                             f"{_show(o)}, not an integer")
        e = Edge(_name(t, "an edge tail"), _name(h, "an edge head"), o)
        if e in edges:
            raise ValueError(f"edge {e} is listed twice")
        edges[e] = _coefficients(c, e)
    for r, m, c in data["decodings"]:
        key = (_name(r, "a receiver"), _name(m, "a message"))
        if key in decs:
            raise ValueError(f"decoding ({key[0]}, {key[1]}) is listed "
                             f"twice")
        decs[key] = _coefficients(c, key)
    return LinearCode(module, edges, decs)


def _coefficients(c, at) -> tuple:
    if isinstance(c, (list, tuple)) and all(type(x) is int for x in c):
        return tuple(c)
    where = (f"edge {at}" if isinstance(at, Edge)
             else f"decoding ({at[0]}, {at[1]})")
    raise ValueError(f"{where} has the coefficients {_show(c)}, "
                     f"not a list of integers")

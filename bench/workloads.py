"""The four workloads: their requests, the calls that issue them, and the
checks applied to every response.

A request carries JSON text only (network, ring descriptor, code JSON or a
CLI argument list).  ``issue`` parses it and builds rings, networks and codes
inside the timed call, the way a ``netring`` CLI invocation does, so ring
construction and dense tables are counted where users pay for them.

Expected verdicts come from four sources, never from the engine being timed
on the same request:

* family theorems: choose-two(n) over GF(q) is solvable iff q >= n - 1, and
  k-dimensional vector-solvable iff q^k >= n - 1 (a partial spread of
  n k-spaces in GF(q)^2k); the M-network and dim-n(n) are scalar-unsolvable
  over every field (some receiver misses one message per source on its
  relay edges, and the bottleneck edge adds one symbol); the M-network is
  solvable over M_2(GF(2)) and every unital ring solves the relay;
* quotient and product arguments: a solution pushes through every quotient,
  so an unsolvable residue field settles a ring; a product is solvable iff
  each factor is; for choose-two, invertibility of 2x2 coefficient matrices
  also lifts from R/J to R, so R is solvable iff every simple factor of
  R/J is;
* for seeded generated networks, a second complete route computed after
  the timed passes (``resolve_expectations``): the other search strategy
  over fields, and over local rings whose residue field solves the network
  a brute force over every coefficient assignment that shares no code
  with the solver;
* corrupted codes must be rejected.

A cut-deficient network (a receiver demanding more messages than it has
in-edges) is unsolvable over every finite ring by counting.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import netring as nr
from netring import cli as nr_cli

import netgen

WORKLOADS = ("rank", "table", "sweep", "codes")

SOLVED, UNSOLVABLE, BUDGET = "solved", "exhausted-unsolvable", "budget-exceeded"
FULL_BUDGET = 20_000_000
SEMANTIC_LIMIT = 1 << 20       # message assignments a check may enumerate
PAIR_LIMIT = 1 << 14           # ring x group pairs of an action table it builds


@dataclass
class Request:
    id: str
    op: str
    args: str                       # JSON text, parsed inside the timed call
    expect: Optional[str] = None    # None until resolve_expectations fills it
    budgeted: bool = False          # a budget stop is an allowed outcome
    route: Optional[dict] = None    # second route for the expected verdict
    check: dict = field(default_factory=dict)


@dataclass
class Response:
    status: str
    value: dict                     # objects the checks and digests read


def _rj(desc) -> dict:
    return nr.descriptor_to_json(desc)


def _req(rid, op, expect=None, *, budgeted=False, route=None, check=None,
         **args) -> Request:
    return Request(rid, op, json.dumps(args, sort_keys=True), expect,
                   budgeted, route, check or {})


GF2, GF3, GF5, GF7 = (nr.PrimeField(p) for p in (2, 3, 5, 7))
GF4, GF8, GF9, GF16 = (nr.GaloisField(2, 2), nr.GaloisField(2, 3),
                       nr.GaloisField(3, 2), nr.GaloisField(2, 4))
FIELDS_TO_16 = (GF2, GF3, GF4, GF5, GF7, GF8, GF9, nr.PrimeField(11),
                nr.PrimeField(13), GF16)
M2F2 = nr.MatrixRing(GF2, 2)


def _q(desc) -> int:
    return desc.p if isinstance(desc, nr.PrimeField) else desc.p ** desc.k


def _opts(budget=FULL_BUDGET, **extra) -> dict:
    return dict(node_budget=budget, **extra)


def _choose_two_status(n: int, residue_fields) -> str:
    return SOLVED if all(q >= n - 1 for q in residue_fields) else UNSOLVABLE


def _generated(rng, pool, count, ring_size, *, max_space, max_cost=None,
               plain=False, indegrees=((2, 3),), **shape):
    """count generated networks whose search fits the caps: coefficient
    space, and that space times the decode rows of one receiver.  With
    plain, the caps also hold without forwarding normalization.

    The structures come from the fixed ``pool`` generator and the run's
    ``rng`` relabels them, so every seed gets different inputs with the
    same search costs and verdicts; a seed that changed the structures
    would change the latency distribution the metrics summarize."""
    out = []
    while len(out) < count:
        indeg = indegrees[len(out) % len(indegrees)]
        net = netgen.random_network(pool, indegree=indeg, **shape)
        decode = netgen.decode_space(net, ring_size)
        spaces = [netgen.exhaustive_space(net, ring_size, normalized=True)]
        if plain:
            spaces.append(netgen.exhaustive_space(net, ring_size,
                                                  normalized=False))
        if decode > 1 << 15 or max(spaces) > max_space:
            continue
        if max_cost is not None and max(spaces) * decode > max_cost:
            continue
        out.append(netgen.relabel(net, rng))
    return out


# ---------------------------------------------------------------------------
# workload builders (run during set-up; they only make JSON)

def build_rank(rng: random.Random, pool: random.Random) -> list[Request]:
    """Searches the rank strategy decides; ring tables stay unused."""
    reqs = []
    m = nr.network_to_json(nr.m_network())
    for f in FIELDS_TO_16:
        reqs.append(_req(f"m/{nr.describe(f)}", "scalar", UNSOLVABLE,
                         network=m, ring=_rj(f), options=_opts()))
    reqs.append(_req("m/M_2(GF(2))", "scalar", SOLVED, network=m,
                     ring=_rj(M2F2), options=_opts()))
    for n in range(3, 8):
        net = nr.network_to_json(nr.choose_two_network(n))
        for f in (GF2, GF3, GF4, GF5, GF7):
            reqs.append(_req(f"c2/{n}/{nr.describe(f)}", "scalar",
                             _choose_two_status(n, [_q(f)]), network=net,
                             ring=_rj(f), options=_opts()))
    dim2 = nr.network_to_json(nr.dim_n_network(2))
    for f in (GF2, GF3):
        reqs.append(_req(f"dim2/{nr.describe(f)}", "scalar", UNSOLVABLE,
                         network=dim2, ring=_rj(f), options=_opts()))
    reqs.append(_req("dim3/GF(2)/budget", "scalar", UNSOLVABLE, budgeted=True,
                     network=nr.network_to_json(nr.dim_n_network(3)),
                     ring=_rj(GF2), options=_opts(20_000)))
    for n, f, k in ((2, GF2, 2), (3, GF2, 2), (4, GF2, 2), (2, GF2, 3),
                    (3, GF2, 3), (2, GF3, 2), (3, GF3, 2), (4, GF3, 2)):
        reqs.append(_req(f"vec/c2/{n}/{nr.describe(f)}/{k}", "vector",
                         _choose_two_status(n, [_q(f) ** k]),
                         network=nr.network_to_json(nr.choose_two_network(n)),
                         field=_rj(f), dim=k, options=_opts()))
    reqs.append(_req("vec/c2/6/GF(2)/2/budget", "vector", UNSOLVABLE,
                     budgeted=True,
                     network=nr.network_to_json(nr.choose_two_network(6)),
                     field=_rj(GF2), dim=2, options=_opts(50_000)))
    reqs.append(_req("vec/relay/GF(2)/3", "vector", SOLVED,
                     network=nr.network_to_json(nr.trivial_network()),
                     field=_rj(GF2), dim=3, options=_opts()))
    for f in (GF2, GF3, GF4, GF5):
        nets = _generated(rng, pool, 100, _q(f), max_space=1 << 10)
        for i, net in enumerate(nets):
            reqs.append(_req(f"gen/{nr.describe(f)}/{i}", "scalar",
                             route={"kind": "exhaustive"}, network=net,
                             ring=_rj(f), options=_opts()))
    return reqs


# (ring, residue field sizes of its simple quotients, is a product of fields)
TABLE_RINGS = (
    (nr.IntegersMod(4), (2,), False),
    (nr.IntegersMod(8), (2,), False),
    (nr.IntegersMod(9), (3,), False),
    (nr.Product((GF2, GF2)), (2, 2), True),
    (nr.Product((GF2, GF3)), (2, 3), True),
    (nr.UpperTriangular(GF2, 2), (2, 2), False),
)


def build_table(rng: random.Random, pool: random.Random) -> list[Request]:
    """Exhaustive enumeration over rings that are not (matrix rings over)
    fields, plus explicit exhaustive cross-checks over small fields."""
    reqs = []
    relay = nr.network_to_json(nr.trivial_network())
    for desc, residues, is_product in TABLE_RINGS:
        name = nr.describe(desc)
        size = nr.construct_ring(desc).size
        sizes = (2, 3, 4) if size == 4 else (2, 3)
        for n in sizes:
            reqs.append(_req(f"c2/{n}/{name}", "scalar",
                             _choose_two_status(n, residues),
                             network=nr.network_to_json(
                                 nr.choose_two_network(n)),
                             ring=_rj(desc), options=_opts()))
        reqs.append(_req(f"relay/{name}", "scalar", SOLVED, network=relay,
                         ring=_rj(desc), options=_opts()))
        # the second route for a local ring enumerates without forwarding
        # normalization, which only 2-input receivers keep small
        nets = _generated(rng, pool, 40, size, max_space=1 << 12,
                          max_cost=1 << 15, plain=not is_product,
                          indegrees=((2,), (3,)) if is_product else ((2,),),
                          sources=(1, 2), relays=(0, 2), receivers=(1, 2))
        route = {"kind": "residue", "fields": list(residues),
                 "product": is_product}
        for i, net in enumerate(nets):
            reqs.append(_req(f"gen/{name}/{i}", "scalar", route=route,
                             network=net, ring=_rj(desc), options=_opts()))
    for f, sizes in ((GF2, (2, 3, 4, 5)), (GF3, (2, 3, 4, 5)),
                     (GF4, (2, 3, 4))):
        for n in sizes:
            reqs.append(_req(f"exh/c2/{n}/{nr.describe(f)}", "scalar",
                             _choose_two_status(n, [_q(f)]),
                             network=nr.network_to_json(
                                 nr.choose_two_network(n)),
                             ring=_rj(f),
                             options=_opts(strategy="exhaustive")))
        nets = _generated(rng, pool, 20, _q(f), max_space=1 << 12,
                          max_cost=1 << 15, indegrees=((2,), (3,)),
                          sources=(1, 2), relays=(0, 2), receivers=(1, 2))
        for i, net in enumerate(nets):
            reqs.append(_req(f"exh/gen/{nr.describe(f)}/{i}", "scalar",
                             route={"kind": "rank"}, network=net,
                             ring=_rj(f),
                             options=_opts(strategy="exhaustive")))
    return reqs


# smallest prime power q >= n - 1 and the field of that size
CHOOSE_TWO_MINIMUM = {4: (3, "GF(3)"), 5: (4, "GF(2^2)"), 6: (5, "GF(5)"),
                      7: (7, "GF(7)")}


def build_sweep(rng: random.Random, pool: random.Random) -> list[Request]:
    """Smallest-ring sweeps decided by ring structure, not by search."""
    reqs = []
    # every pass sweeps the same mix of bottleneck shapes (messages, relay
    # chain length) and the same choose-two networks; the seed picks the
    # decoy receivers and the order
    shapes = [(k, chain) for k in (2, 3) for chain in (0, 1, 2)]
    # a pass stays near six seconds, so several passes fit in a run and
    # each request's latency is the fastest of them
    cut = [max_size for max_size, count in ((32, 1), (16, 3), (8, 30))
           for _ in range(count)]
    for i, max_size in enumerate(cut):
        k, chain = shapes[i % len(shapes)]
        net = netgen.cut_deficient_network(rng, k, chain)
        reqs.append(_req(f"cut/{max_size}/{i}", "sweep", UNSOLVABLE,
                         check={"minimal_size": None, "winners": []},
                         network=net, max_size=max_size))
    for n, count in ((4, 28), (5, 28), (6, 8), (7, 2)):
        size, name = CHOOSE_TWO_MINIMUM[n]
        net = nr.network_to_json(nr.choose_two_network(n))
        for i in range(count):
            reqs.append(_req(f"c2/{n}/{i}", "sweep", SOLVED,
                             check={"minimal_size": size, "winners": [name]},
                             network=net, max_size=16))
    return reqs


# -- the code corpus, built like the acceptance suite's

def _pair_net():
    return nr.Network(["s", "t"], [("s", "t", 0), ("s", "t", 1)],
                      [("m1", "s"), ("m2", "s")], {"t": ("m1", "m2")})


def _chain2_net():
    return nr.Network(["s", "u", "t"],
                      [("s", "u", 0), ("s", "u", 1), ("u", "t", 0),
                       ("u", "t", 1)],
                      [("m1", "s"), ("m2", "s")], {"t": ("m1", "m2")})


def _pair_forwarding(ring):
    net = _pair_net()
    e0, e1 = net.topo_edges()
    one = ring.one
    return net, nr.LinearCode(nr.scalar_module(ring),
                              {e0: (one, 0), e1: (0, one)},
                              {("t", "m1"): (one, 0), ("t", "m2"): (0, one)})


PAIR_RINGS = (
    GF2, GF3, GF5, GF7, nr.PrimeField(11), GF4, GF8, GF16, GF9,
    nr.GaloisField(5, 2),
    nr.IntegersMod(4), nr.IntegersMod(6), nr.IntegersMod(8),
    nr.IntegersMod(9), nr.IntegersMod(12), nr.IntegersMod(16),
    M2F2, nr.MatrixRing(GF3, 2),
    nr.UpperTriangular(GF2, 2), nr.UpperTriangular(GF3, 2),
    nr.Product((GF2, GF3)), nr.Product((nr.IntegersMod(4), GF2)),
    nr.Product((GF2, GF2, GF2)), nr.Product((GF4, GF2)),
    # 64 elements: their quotients build dense tables
    nr.UpperTriangular(GF2, 3), nr.UpperTriangular(GF4, 2),
)

CHOOSE_TWO_WINS = (
    (2, (GF2, GF3, GF4, nr.IntegersMod(4), nr.Product((GF2, GF2)),
         nr.IntegersMod(6))),
    (3, (GF2, GF3, GF4, GF5)),
    (4, (GF3, GF4, GF5)),
    (5, (GF4, GF5)),
    (6, (GF5, GF7, GF8)),
    (7, (GF7, GF8, GF9)),
)


def code_corpus() -> list[tuple[str, "nr.Network", "nr.LinearCode"]]:
    """Fifty-odd working codes on small networks."""
    out = []
    for n in (2, 3):
        for f in (GF2, GF3):
            net, code = nr.routing_code_dim_n(n, nr.construct_ring(f))
            out.append((f"routing/{n}/{nr.describe(f)}", net, code))
    net, explicit = nr.explicit_m_network_code()
    out.append(("explicit-m", net, explicit))
    out.append(("explicit-m/vector", net,
                nr.matrix_scalar_to_vector(explicit)))
    c4 = nr.choose_two_network(4)
    res = nr.solve_vector(c4, nr.construct_ring(GF2), 2)
    out.append(("vector/c2/4/GF(2)/2", c4, res.code))
    for desc in PAIR_RINGS:
        net, code = _pair_forwarding(nr.construct_ring(desc))
        out.append((f"pair/{nr.describe(desc)}", net, code))
    for n, descs in CHOOSE_TWO_WINS:
        net = nr.choose_two_network(n)
        for desc in descs:
            res = nr.solve_scalar(net, nr.construct_ring(desc))
            out.append((f"c2/{n}/{nr.describe(desc)}", net, res.code))
    for desc in (nr.IntegersMod(4), GF4):
        net = nr.trivial_network()
        res = nr.solve_scalar(net, nr.construct_ring(desc))
        out.append((f"relay/{nr.describe(desc)}", net, res.code))
    for desc in (GF2, GF3):
        net = _chain2_net()
        res = nr.solve_scalar(net, nr.construct_ring(desc))
        out.append((f"chain2/{nr.describe(desc)}", net, res.code))
    return out


def code_json(code) -> dict:
    """Code JSON as the CLI reads it.  Scalar codes over rings that are not
    fields name their ring instead of listing its tables, so parsing the
    code, not writing it, is what builds them."""
    if code.module.vector_dim is not None:
        return nr.code_to_json(code)
    return {"module": {"kind": "scalar",
                       "ring": _rj(code.module.ring.descriptor)},
            "edges": sorted([e.tail, e.head, e.ordinal, list(c)]
                            for e, c in code.edge_coeffs.items()),
            "decodings": sorted([r, m, list(c)]
                                for (r, m), c in code.decodings.items())}


def _corrupt(code, rng):
    """Zero one decoding row; the code must then be rejected."""
    decs = dict(code.decodings)
    key = rng.choice(sorted(decs))
    decs[key] = tuple(0 for _ in decs[key])
    return nr.LinearCode(code.module, dict(code.edge_coeffs), decs)


EMBEDDINGS = ((GF2, GF4), (GF2, GF8), (GF3, GF9))
REPRO_SUITES = ("explicit-m", "catalog", "choose-two", "dim-n", "pipeline")


def build_codes(rng: random.Random, pool: random.Random) -> list[Request]:
    """Verification, entropy, serialization, transforms and the CLI."""
    reqs = []
    for label, net, code in code_corpus():
        nj = nr.network_to_json(net)
        cj = code_json(code)
        ring = code.module.ring
        mod = code.module
        states = mod.group.size ** len(net.message_names)
        reqs.append(_req(f"verify/{label}", "verify", "accepted",
                         network=nj, code=cj))
        bad = code_json(_corrupt(code, rng))
        reqs.append(_req(f"verify/{label}/corrupt", "verify", "rejected",
                         network=nj, code=bad))
        # the 64-element rings only feed the quotient below, so their dense
        # tables are built once per pass, by the transform that needs them
        dense = ring.size >= 64
        if states <= SEMANTIC_LIMIT and ring.size * mod.group.size \
                <= PAIR_LIMIT and not dense:
            reqs.append(_req(f"semantic/{label}", "semantic", "accepted",
                             network=nj, code=cj))
            reqs.append(_req(f"semantic/{label}/corrupt", "semantic",
                             "rejected", network=nj, code=bad))
        if ring.size <= 32:
            reqs.append(_req(f"json/{label}", "roundtrip", "equal", code=cj))
        if mod.vector_dim is not None:
            receiver = rng.choice(net.receivers)
            reqs.append(_req(f"entropy/{label}", "entropy", "ok",
                             check={"messages": mod.vector_dim
                                    * len(net.message_names)},
                             network=nj, code=cj, receiver=receiver))
        edges = len(code.edge_coeffs)
        fns = []
        if ring.size <= 256:
            fns.append("quotient_by_annihilator")
        if ring.size <= 16 and edges <= 25:
            fns.append("product_code")
        if ring.size <= 16:
            fns.append("simple_reduction")
        if mod.vector_dim is None and ring.kind == "matrix":
            fns.append("matrix_scalar_to_vector")
        if mod.vector_dim is not None and mod.vector_dim >= 2 \
                and ring.size <= 4096:
            fns.append("vector_to_matrix_scalar")
        if mod.vector_dim is not None and mod.vector_dim <= 2 and edges <= 16:
            fns.append("dim_sum")
        for fn in fns:
            reqs.append(_req(f"{fn}/{label}", "transform", "accepted",
                             network=nj, code=cj, fn=fn))
        if fns and fns[-1] in ("matrix_scalar_to_vector",
                               "vector_to_matrix_scalar"):
            reqs.append(_req(f"{fns[-1]}/{label}/corrupt", "transform",
                             "rejected", network=nj, code=bad, fn=fns[-1]))
    for src, dst in EMBEDDINGS:
        net, code = _pair_forwarding(nr.construct_ring(src))
        reqs.append(_req(f"hom_lift/{nr.describe(src)}->{nr.describe(dst)}",
                         "transform", "accepted",
                         network=nr.network_to_json(net),
                         code=code_json(code), fn="hom_lift", target=_rj(dst)))
    net, ca = _pair_forwarding(nr.construct_ring(GF2))
    _, cb = _pair_forwarding(nr.construct_ring(GF3))
    reqs.append(_req("product_code/GF(2)+GF(3)", "transform", "accepted",
                     network=nr.network_to_json(net), code=code_json(ca),
                     other=code_json(cb), fn="product_code"))
    for suite in REPRO_SUITES:
        reqs.append(_req(f"cli/repro/{suite}", "cli", "exit 0",
                         argv=["repro", suite]))
    return reqs


BUILDERS = {"rank": build_rank, "table": build_table, "sweep": build_sweep,
            "codes": build_codes}


def build(workload: str, seed: int) -> list[Request]:
    """The workload's requests for this seed, in their seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    reqs = BUILDERS[workload](rng, random.Random(f"{workload}:pool"))
    if len({r.id for r in reqs}) != len(reqs):
        raise AssertionError(f"duplicate request ids in {workload}")
    rng.shuffle(reqs)
    return reqs


# ---------------------------------------------------------------------------
# issuing a request (this is what gets timed)

def _net(a):
    return nr.network_from_json(a["network"])


def _ring(d):
    return nr.construct_ring(nr.descriptor_from_json(d))


def _code(d):
    return nr.code_from_json(d)


def _solve_response(net, res) -> Response:
    out = nr.code_to_json(res.code) if res.code is not None else None
    return Response(res.status, {"net": net, "code_json": out})


def _op_scalar(a):
    net = _net(a)
    res = nr.solve_scalar(net, _ring(a["ring"]),
                          nr.SearchOptions(**a["options"]))
    return _solve_response(net, res)


def _op_vector(a):
    net = _net(a)
    res = nr.solve_vector(net, _ring(a["field"]), a["dim"],
                          nr.SearchOptions(**a["options"]))
    return _solve_response(net, res)


def _op_sweep(a):
    net = _net(a)
    rep = nr.smallest_ring_search(net, a["max_size"])
    if rep.minimal_size is not None:
        status = SOLVED
    elif any(v.status == BUDGET for v in rep.verdicts):
        status = BUDGET
    else:
        status = UNSOLVABLE
    winners = [(v.name, nr.code_to_json(v.code) if v.code else None)
               for v in rep.winners]
    return Response(status, {"net": net, "minimal_size": rep.minimal_size,
                             "winners": winners,
                             "verdicts": [(v.name, v.status, v.method)
                                          for v in rep.verdicts]})


def _verdict(v) -> Response:
    return Response("accepted" if v.solved else "rejected",
                    {"failure": v.failure})


def _op_verify(a):
    return _verdict(nr.verify_solution(_net(a), _code(a["code"])))


def _op_semantic(a):
    return _verdict(nr.semantic_verify(_net(a), _code(a["code"])))


def _op_entropy(a):
    net = _net(a)
    code = _code(a["code"])
    r = a["receiver"]
    ins = [e for e in net.in_edges(r)]
    wanted = list(net.demands[r])
    h_in = nr.entropy_of(net, code, ins).value
    h_both = nr.entropy_of(net, code, ins + wanted).value
    h_msgs = nr.entropy_of(net, code, list(net.message_names)).value
    return Response("ok", {"h": (h_in, h_both, h_msgs)})


def _op_roundtrip(a):
    first = nr.code_to_json(_code(a["code"]))
    text = json.dumps(first, sort_keys=True)
    second = nr.code_to_json(_code(json.loads(text)))
    return Response("equal" if second == first else "differs",
                    {"json": second})


def _op_transform(a):
    net = _net(a)
    code = _code(a["code"])
    fn = a["fn"]
    if fn == "quotient_by_annihilator":
        out, _ = nr.quotient_by_annihilator(code)
    elif fn == "product_code":
        other = _code(a["other"]) if "other" in a else code
        out = nr.product_code([code, other])
    elif fn == "simple_reduction":
        target, hom = nr.simple_reduction(code.module.ring)
        out = nr.hom_lift(code, hom, nr.scalar_module(target))
    elif fn == "hom_lift":
        target = _ring(a["target"])
        hom = nr.find_homomorphisms(code.module.ring, target)[0]
        out = nr.hom_lift(code, hom, nr.scalar_module(target))
    elif fn == "matrix_scalar_to_vector":
        out = nr.matrix_scalar_to_vector(code)
    elif fn == "vector_to_matrix_scalar":
        out = nr.vector_to_matrix_scalar(code)
    elif fn == "dim_sum":
        out = nr.dim_sum(code, code)
    else:
        raise ValueError(f"unknown transform {fn}")
    v = nr.verify_solution(net, out)
    return Response("accepted" if v.solved else "rejected",
                    {"net": net, "code": out, "failure": v.failure})


def _op_cli(a):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = nr_cli.main(list(a["argv"]))
    return Response(f"exit {rc}", {"result": json.loads(buf.getvalue())})


OPS = {"scalar": _op_scalar, "vector": _op_vector, "sweep": _op_sweep,
       "verify": _op_verify, "semantic": _op_semantic,
       "entropy": _op_entropy, "roundtrip": _op_roundtrip,
       "transform": _op_transform, "cli": _op_cli}


def issue(req: Request) -> Response:
    return OPS[req.op](json.loads(req.args))


# ---------------------------------------------------------------------------
# digests and checks (outside the timed calls)

def _canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=str)


def _code_payload(code) -> dict:
    return {"module": code.module.label,
            "ring": nr.describe(code.module.ring.descriptor),
            "edges": sorted([str(e), list(c)]
                            for e, c in code.edge_coeffs.items()),
            "decodings": sorted([f"{r}:{m}", list(c)]
                                for (r, m), c in code.decodings.items())}


def witness(resp: Response):
    """The part of a response the verdict digest covers."""
    v = resp.value
    if "code_json" in v:
        return v["code_json"]
    if "winners" in v:
        return [v["minimal_size"], v["winners"], v["verdicts"]]
    if "code" in v:
        return _code_payload(v["code"])
    for key in ("h", "json", "result"):
        if key in v:
            return v[key]
    return v.get("failure")


def witness_digest(resp: Response) -> str:
    return hashlib.sha256(_canon(witness(resp)).encode()).hexdigest()


def verdict_digest(records) -> str:
    """sha256 over the ordered (request id, status, witness digest) list."""
    return hashlib.sha256(_canon(list(records)).encode()).hexdigest()


def _verify_code(net, code) -> Optional[str]:
    """Semantic check where the assignments are few enough, else the
    coefficient check; None when the code works."""
    mod = code.module
    states = mod.group.size ** len(net.message_names)
    if states <= SEMANTIC_LIMIT and mod.ring.size * mod.group.size <= PAIR_LIMIT:
        v = nr.semantic_verify(net, code)
    else:
        v = nr.verify_solution(net, code)
    return None if v.solved else f"{v.method} check failed: {v.failure}"


def check_status(req: Request, status: str) -> list[str]:
    """Problems with a verdict; needs the expectations resolved."""
    if req.expect is None:
        return [f"no expected verdict ({req.route})"]
    if status != req.expect and not (req.budgeted and status == BUDGET):
        return [f"status {status}, expected {req.expect}"]
    return []


def check_output(req: Request, resp: Response) -> list[str]:
    """Problems with what a response carries besides its verdict: every
    witness is verified again, sweeps and entropies are compared with the
    theory, and the CLI suites must report no failed check."""
    problems = []
    v = resp.value
    if req.op in ("scalar", "vector") and resp.status == SOLVED:
        cj = v.get("code_json")
        if cj is None:
            problems.append("solved without a witness")
        else:
            bad = _verify_code(v["net"], nr.code_from_json(cj))
            if bad:
                problems.append(f"witness rejected: {bad}")
    elif req.op == "sweep":
        got = [name for name, _ in v["winners"]]
        if v["minimal_size"] != req.check["minimal_size"] \
                or got != req.check["winners"]:
            problems.append(f"sweep found {v['minimal_size']} {got}, "
                            f"expected {req.check}")
        for name, cj in v["winners"]:
            bad = ("no witness" if cj is None
                   else _verify_code(v["net"], nr.code_from_json(cj)))
            if bad:
                problems.append(f"winner {name} witness rejected: {bad}")
    elif req.op == "entropy":
        h_in, h_both, h_msgs = v["h"]
        if h_in != h_both:
            problems.append(f"receiver entropy {h_in} grows to {h_both} "
                            "with its demands")
        if h_msgs != req.check["messages"]:
            problems.append(f"message entropy {h_msgs}, expected "
                            f"{req.check['messages']}")
    elif req.op == "transform" and resp.status == "accepted":
        bad = _verify_code(v["net"], v["code"])
        if bad:
            problems.append(f"transform output rejected: {bad}")
    elif req.op == "cli":
        if not v["result"].get("ok") or not all(
                c["ok"] for c in v["result"].get("checks", [])):
            problems.append("repro suite reported a failed check")
    return problems


# ---------------------------------------------------------------------------
# second routes for generated networks (run after the timed passes)

def _route_status(net, desc, **opts) -> str:
    res = nr.solve_scalar(net, nr.construct_ring(desc),
                          nr.SearchOptions(node_budget=FULL_BUDGET, **opts))
    if res.status == BUDGET:
        raise RuntimeError("second route ran out of budget")
    return res.status


def expected_by_route(req: Request) -> str:
    a = json.loads(req.args)
    net = nr.network_from_json(a["network"])
    desc = nr.descriptor_from_json(a["ring"])
    kind = req.route["kind"]
    if kind == "exhaustive":
        return _route_status(net, desc, strategy="exhaustive")
    if kind == "rank":
        return _route_status(net, desc, strategy="rank")
    if kind == "residue":
        for p in req.route["fields"]:
            if _route_status(net, nr.PrimeField(p),
                             strategy="rank") == UNSOLVABLE:
                return UNSOLVABLE      # pushed down to a residue field
        if req.route["product"]:
            return SOLVED              # every factor solves it
        return brute_force_status(net, desc)
    raise ValueError(f"unknown route {kind}")


def brute_force_status(net, desc) -> str:
    """Scalar solvability by trying every coefficient assignment (with no
    forwarding normalization) and every decode row.  It uses the ring's
    addition and multiplication tables and none of the solver's code; a
    code it finds must also pass semantic_verify."""
    ring = nr.construct_ring(desc)
    add, mul = ring.add_table(), ring.mul_table()
    s, width = ring.size, len(net.message_names)
    pos = {m: i for i, m in enumerate(net.message_names)}
    unit = np.eye(width, dtype=np.int64) * ring.one    # index 0 is zero
    edges = net.topo_edges()
    slots = [len(net.inputs(e.tail)) for e in edges]
    grid = np.array(list(itertools.product(range(s), repeat=sum(slots))),
                    dtype=np.int64).reshape(-1, sum(slots))
    n = len(grid)

    def rows_of(node):
        return [rows[ref] if kind == "edge"
                else np.broadcast_to(unit[pos[ref]], (n, width))
                for kind, ref in net.inputs(node)]

    rows, col = {}, 0
    for e in edges:
        acc = np.zeros((n, width), dtype=np.int64)
        for y in rows_of(e.tail):
            acc = add[acc, mul[grid[:, col, None], y]]
            col += 1
        rows[e] = acc
    ok = np.ones(n, dtype=bool)
    hits = {}
    for r in net.receivers:
        ins = rows_of(r)
        cand = np.array(list(itertools.product(range(s), repeat=len(ins))))
        val = np.zeros((n, len(cand), width), dtype=np.int64)
        for j, y in enumerate(ins):
            val = add[val, mul[cand[None, :, j, None], y[:, None, :]]]
        for m in net.demands[r]:
            hit = (val == unit[pos[m]]).all(axis=2)     # (assignment, row)
            ok &= hit.any(axis=1)
            hits[(r, m)] = (hit, cand)
    if not ok.any():
        return UNSOLVABLE
    i = int(np.argmax(ok))
    coeffs, col = {}, 0
    for e, k in zip(edges, slots):
        coeffs[e] = tuple(int(c) for c in grid[i, col:col + k])
        col += k
    decodings = {key: tuple(int(c) for c in cand[int(np.argmax(hit[i]))])
                 for key, (hit, cand) in hits.items()}
    code = nr.LinearCode(nr.scalar_module(ring), coeffs, decodings)
    if not nr.semantic_verify(net, code).solved:
        raise RuntimeError("brute force found a code semantic_verify rejects")
    return SOLVED


def resolve_expectations(reqs: list[Request]) -> None:
    for req in reqs:
        if req.expect is None and req.route is not None:
            req.expect = expected_by_route(req)

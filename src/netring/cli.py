"""Command-line front end: generators, checks, transforms, search, repro.

Every subcommand is a thin adapter over the library with JSON files on
both sides, so scripted runs and direct calls cannot disagree.  Runs can
write a manifest (input digests, options, result digest) and repeating a
run reproduces the result digest bit for bit; timing fields are kept out
of the digest.  Exit codes: 0 success/solved, 1 failed/unsolvable,
2 budget-exceeded, 64 usage error, 65 malformed input.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from typing import Optional

from . import __version__
from . import codes as _codes
from . import modules as _modules
from . import networks as _networks
from . import rings as _rings
from . import solver as _solver
from . import transforms as _transforms

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_DATA = 65

# timings, left out of the result digest so that a rerun reproduces it
_VOLATILE = {"elapsed", "phase_seconds", "wall_clock"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _DataError(Exception):
    pass


def _load(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _DataError(f"cannot read {path}: {exc}") from exc


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in sorted(obj.items())
                if k not in _VOLATILE}
    if isinstance(obj, (list, tuple)):
        return [_strip_volatile(v) for v in obj]
    return obj


def _digest(obj) -> str:
    payload = json.dumps(_strip_volatile(obj), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def _subcommand(args) -> str:
    """The subcommand as typed: "ring verify", "module", "repro dim-n"."""
    return " ".join(getattr(args, key) for key in
                    ("command", "action", "mode", "suite") if hasattr(args, key))


def _emit(args, inputs: list[str], result, t0: float) -> None:
    text = json.dumps(result, indent=2, sort_keys=True)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    manifest_path = getattr(args, "manifest", None)
    if manifest_path:
        options = {k: v for k, v in sorted(vars(args).items())
                   if k not in ("func", "manifest") and v is not None}
        manifest = {
            "subcommand": _subcommand(args),
            "inputs": {p: _file_digest(p) for p in inputs},
            "options": options,
            "version": __version__,
            "wall_clock": round(time.perf_counter() - t0, 6),
            "result_digest": _digest(result),
        }
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _decode(path: str, what: str, decode):
    """decode(JSON of path).  A TypeError, KeyError or ValueError from
    decode is a data error (exit 65, one line), never a crash or a
    verdict: decoders raise one for a list where an object belongs or a
    missing key, and the network, code, ring and module readers for every
    value of the wrong JSON type too (networks module notes,
    codes.code_from_json, rings.descriptor_from_json)."""
    data = _load(path)
    try:
        return decode(data)
    except (TypeError, KeyError, ValueError) as exc:
        raise _DataError(f"malformed {what} in {path}: {exc}") from exc


def _ring_arg(path: str) -> _rings.Ring:
    return _decode(path, "ring", lambda data: _rings.construct_ring(
        _rings.descriptor_from_json(data)))


def _net_arg(path: str) -> _networks.Network:
    return _decode(path, "network", _networks.network_from_json)


def _field_arg(spec: str) -> _rings.Ring:
    """Parse p or p^k into a prime or Galois field."""
    try:
        if "^" in spec:
            p_str, k_str = spec.split("^", 1)
            p, k = int(p_str), int(k_str)
        else:
            p, k = int(spec), 1
    except ValueError as exc:
        raise _DataError(f"bad field spec {spec!r}; expected p or p^k") from exc
    desc = _rings.PrimeField(p) if k == 1 else _rings.GaloisField(p, k)
    return _rings.construct_ring(desc)


# ---------------------------------------------------------------------------
# ring subcommand

def _cmd_ring(args):
    if args.action == "verify":
        ring = _ring_arg(args.ring)
        report = _rings.verify_ring_axioms(ring)
        result = {"ring": _rings.describe(ring.descriptor), "ok": report.ok,
                  "axioms": report.axioms,
                  "witnesses": {k: list(v) for k, v in report.witnesses.items()},
                  "unchecked": list(report.unchecked)}
        return [args.ring], result, EXIT_OK if report.ok else EXIT_FAIL
    if args.action == "radical":
        ring = _ring_arg(args.ring)
        rad = _rings.radical(ring)
        result = {"ring": _rings.describe(ring.descriptor),
                  "radical": list(rad.elements),
                  "radical_size": len(rad.elements),
                  "quotient_size": ring.size // len(rad.elements),
                  "quotient_blocks": [[r, q_] for (r, q_)
                                      in _rings.semisimple_decompose(ring)]}
        return [args.ring], result, EXIT_OK
    if args.action == "catalog":
        entries = _rings.semisimple_catalog(args.p, args.k)
        result = {"p": args.p, "k": args.k, "count": len(entries),
                  "entries": [{"name": _rings.describe(d),
                               "descriptor": _rings.descriptor_to_json(d)}
                              for d in entries]}
        return [], result, EXIT_OK
    if args.action == "homs":
        src = _ring_arg(args.source)
        dst = _ring_arg(args.target)
        homs = _rings.find_homomorphisms(src, dst)
        result = {"from": _rings.describe(src.descriptor),
                  "to": _rings.describe(dst.descriptor),
                  "count": len(homs),
                  "maps": [list(h.mapping) for h in homs]}
        return [args.source, args.target], result, EXIT_OK
    raise AssertionError(args.action)


# ---------------------------------------------------------------------------
# module subcommand

def _cmd_module(args):
    mod = _decode(args.module, "module", _modules.module_from_json)
    result = {"label": mod.label, "ring_size": mod.ring.size,
              "group_size": mod.group.size}
    ok = True
    if args.check:
        try:
            _modules.verify_module_axioms(mod)
            result["axioms"] = "all hold"
        except _modules.ModuleAxiomError as exc:
            ok = False
            result["axioms"] = {"failed": exc.axiom, "witness": list(exc.witness)}
    if args.faithful:
        result["faithful"] = mod.is_faithful()
        result["annihilator"] = list(mod.annihilator())
    if args.submodules:
        subs = _modules.submodules(mod)
        result["submodules"] = {"count": len(subs),
                                "sizes": sorted(len(s) for s in subs)}
    return [args.module], result, EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# net subcommand

_GENERATORS = {
    "m": lambda _: _networks.m_network(),
    "dim-n": lambda n: _networks.dim_n_network(n),
    "choose-two": lambda n: _networks.choose_two_network(n),
    "trivial": lambda _: _networks.trivial_network(),
}


def _cmd_net(args):
    if args.action == "gen":
        if args.family in ("dim-n", "choose-two") and args.size is None:
            raise _DataError(f"family {args.family} needs a size argument")
        net = _GENERATORS[args.family](args.size)
        return [], _networks.network_to_json(net), EXIT_OK
    if args.action == "validate":
        net = _decode(args.network, "network", _networks.parse_network)
        issues = _networks.validate_network(net)
        result = {"ok": not issues, "issues": issues}
        return [args.network], result, EXIT_OK if not issues else EXIT_FAIL
    raise AssertionError(args.action)


# ---------------------------------------------------------------------------
# code subcommand

def _edge_lookup(net: _networks.Network, token: str):
    for e in net.edges:
        if str(e) == token:
            return e
    raise _DataError(f"no edge {token!r} in the network")


def _code_arg(path: str) -> _codes.LinearCode:
    """Load a code file, unwrapping `solve` output so a saved search result
    can feed `code verify`/`transform` directly."""
    def decode(data):
        if isinstance(data, dict) and "edge_coeffs" not in data \
                and "code" in data:
            if data["code"] is None:
                raise _DataError(f"{path} is an unsolved search result, "
                                 "there is no code to load")
            data = data["code"]
        return _codes.code_from_json(data)

    return _decode(path, "code", decode)


def _cmd_code(args):
    net = _net_arg(args.network)
    code = _code_arg(args.code)
    if args.action == "verify":
        verdict = _codes.verify_solution(net, code)
        result = {"solved": verdict.solved, "method": verdict.method,
                  "checks": {f"{r}:{m}": ok
                             for (r, m), ok in verdict.checks.items()},
                  "failure": verdict.failure}
        if args.semantic:
            sem = _codes.semantic_verify(net, code)
            result["semantic"] = {"solved": sem.solved,
                                  "failure": sem.failure}
            result["solved"] = result["solved"] and sem.solved
        return ([args.network, args.code], result,
                EXIT_OK if result["solved"] else EXIT_FAIL)
    if args.action == "entropy":
        variables = []
        for token in args.vars.split(","):
            token = token.strip()
            if token in net.message_names:
                variables.append(token)
            else:
                variables.append(_edge_lookup(net, token))
        rep = _codes.entropy_of(net, code, variables)
        result = {"variables": list(rep.variables), "rank": rep.rank,
                  "field_size": rep.field_size, "dimension": rep.dimension,
                  "value_log_units": rep.value}
        return [args.network, args.code], result, EXIT_OK
    raise AssertionError(args.action)


# ---------------------------------------------------------------------------
# transform subcommand

def _cmd_transform(args):
    if args.action == "simple-reduce":
        ring = _ring_arg(args.ring)
        simple, hom = _transforms.simple_reduction(ring)
        result = {"from": _rings.describe(ring.descriptor),
                  "to_size": simple.size,
                  "blocks": [[r, q] for (r, q)
                             in _rings.semisimple_decompose(simple)],
                  "map": list(hom.mapping)}
        return [args.ring], result, EXIT_OK
    code = _code_arg(args.code)
    inputs = [args.code]
    if args.action == "mat2vec":
        out = _transforms.matrix_scalar_to_vector(code)
    elif args.action == "vec2mat":
        out = _transforms.vector_to_matrix_scalar(code)
    elif args.action == "ann-quotient":
        out, _ = _transforms.quotient_by_annihilator(code)
    elif args.action == "dim-sum":
        other = _code_arg(args.other)
        inputs.append(args.other)
        out = _transforms.dim_sum(code, other)
    elif args.action == "product":
        rest = [_code_arg(p) for p in args.others]
        inputs.extend(args.others)
        out = _transforms.product_code([code] + rest)
    elif args.action == "hom-lift":
        target = _ring_arg(args.target)
        inputs.append(args.target)
        homs = _rings.find_homomorphisms(code.module.ring, target)
        if not homs:
            print("no ring homomorphism onto the target", file=sys.stderr)
            return inputs, None, EXIT_FAIL
        if not 0 <= args.hom_index < len(homs):
            raise _DataError(f"hom index {args.hom_index} is outside "
                             f"0..{len(homs) - 1}; there are {len(homs)} "
                             "ring homomorphisms onto the target")
        hom = homs[args.hom_index]
        out = _transforms.hom_lift(code, hom,
                                   _modules.scalar_module(target))
    else:
        raise AssertionError(args.action)
    return inputs, _codes.code_to_json(out), EXIT_OK


# ---------------------------------------------------------------------------
# solve subcommand

def _options_from(args) -> _solver.SearchOptions:
    opts = _solver.SearchOptions()
    if args.budget is not None:
        opts.node_budget = args.budget
    if args.time_budget is not None:
        opts.time_budget = args.time_budget
    if getattr(args, "strategy", None):
        opts.strategy = args.strategy
    if getattr(args, "no_normalize", False):
        opts.normalize_forwarding = False
    opts.shards = args.shards
    opts.shard_index = args.shard_index
    return opts


def _solve_exit(status: str) -> int:
    return {"solved": EXIT_OK, "exhausted-unsolvable": EXIT_FAIL,
            "budget-exceeded": EXIT_BUDGET}[status]


def _result_json(res: _solver.SolveResult):
    return {"status": res.status, "stats": res.stats,
            "code": _codes.code_to_json(res.code) if res.code else None}


def _cmd_solve(args):
    net = _net_arg(args.network)
    opts = _options_from(args)
    if args.mode == "scalar":
        ring = _ring_arg(args.ring)
        res = _solver.solve_scalar(net, ring, opts)
        return ([args.network, args.ring], _result_json(res),
                _solve_exit(res.status))
    if args.mode == "vector":
        field = _field_arg(args.field)
        res = _solver.solve_vector(net, field, args.dim, opts)
        return [args.network], _result_json(res), _solve_exit(res.status)
    if args.mode == "smallest":
        catalog = None
        if args.catalog:
            catalog = _decode(args.catalog, "ring catalogue", lambda data: [
                _rings.descriptor_from_json(d) for d in data])
        report = _solver.smallest_ring_search(net, args.max_size, catalog,
                                              opts)
        result = {
            "minimal_size": report.minimal_size,
            "winners": [v.name for v in report.winners],
            "verdicts": [{"name": v.name, "size": v.size,
                          "status": v.status, "method": v.method}
                         for v in report.verdicts],
            "coverage": report.coverage,
            "elapsed": report.elapsed,
        }
        stopped = any(v.status == "budget-exceeded" for v in report.verdicts)
        code = (EXIT_OK if report.minimal_size is not None else
                EXIT_BUDGET if stopped else EXIT_FAIL)
        return ([args.network] + ([args.catalog] if args.catalog else []),
                result, code)
    raise AssertionError(args.mode)


# ---------------------------------------------------------------------------
# repro suites

def _suite_explicit_m():
    checks = []
    net, code = _codes.explicit_m_network_code()
    verdict = _codes.verify_solution(net, code)
    checks.append(("scalar code verifies", verdict.solved, verdict.method))
    vec = _transforms.matrix_scalar_to_vector(code)
    vv = _codes.verify_solution(net, vec)
    checks.append(("2-dim vector form verifies", vv.solved, vv.method))
    sem = _codes.semantic_verify(net, vec)
    total = vec.module.group.size ** len(net.messages)
    checks.append((f"semantic agreement over {total} assignments",
                   sem.solved and total == 256, sem.method))
    return checks


def _suite_catalog():
    checks = []
    expected = {1: 1, 2: 2, 3: 3, 4: 6, 5: 8, 6: 13}
    for k, want in expected.items():
        entries = _rings.semisimple_catalog(2, k)
        checks.append((f"count at 2^{k}", len(entries) == want,
                       f"{len(entries)} (expected {want})"))
    for k in (1, 2, 3):
        for desc in _rings.semisimple_catalog(2, k):
            ring = _rings.construct_ring(desc)
            rad = _rings.radical(ring)
            checks.append((f"radical of {_rings.describe(desc)} is zero",
                           rad.elements == (0,), f"size {len(rad.elements)}"))
    return checks


def _suite_choose_two():
    checks = []
    for n in (3, 4, 5):
        net = _networks.choose_two_network(n)
        for q, desc in ((2, _rings.PrimeField(2)), (3, _rings.PrimeField(3)),
                        (4, _rings.GaloisField(2, 2)),
                        (5, _rings.PrimeField(5))):
            res = _solver.solve_scalar(net, _rings.construct_ring(desc))
            want = "solved" if q >= n - 1 else "exhausted-unsolvable"
            checks.append((f"n={n} q={q}", res.status == want,
                           f"{res.status} (expected {want})"))
    return checks


def _suite_dim_n():
    checks = []
    for n in (2, 3):
        for p in (2, 3):
            field = _rings.construct_ring(_rings.PrimeField(p))
            net, code = _codes.routing_code_dim_n(n, field)
            verdict = _codes.verify_solution(net, code)
            checks.append((f"routing n={n} p={p} verifies", verdict.solved,
                           verdict.method))
            bottleneck = next(e for e in net.edges
                              if e.tail == "a1" and e.head == "z")
            rep = _codes.entropy_of(net, code, [bottleneck])
            checks.append((f"bottleneck entropy n={n} p={p}",
                           rep.value == n, f"{rep.value} (expected {n})"))
    return checks


def _suite_pipeline():
    """Push solutions over small semisimple rings onto a single field (or
    a matrix ring) through decomposition, projection, and embedding."""
    checks = []
    p = 2
    nets = [("two-relays", _networks.choose_two_network(2)),
            ("three-relays", _networks.choose_two_network(3))]
    # the same factor ring recurs across the catalogue entries
    solved = {}
    for k in (2, 3, 4):
        big = _rings.construct_ring(_rings.GaloisField(p, k))
        for desc in _rings.semisimple_catalog(p, k):
            ring = _rings.construct_ring(desc)
            blocks = _rings.semisimple_decompose(ring)
            factors = (list(desc.factors)
                       if isinstance(desc, _rings.Product) else [desc])
            # pick a block that embeds into GF(p^k): a field GF(p^a), a | k
            target_idx = None
            for i, (r, q) in enumerate(blocks):
                a = _rings._prime_power(q)[1]
                if r == 1 and k % a == 0:
                    target_idx = i
                    break
            for net_name, net in nets:
                per_factor = []
                for f in factors:
                    if (net_name, f) not in solved:
                        solved[(net_name, f)] = _solver.solve_scalar(
                            net, _rings.construct_ring(f))
                    sub = solved[(net_name, f)]
                    if not sub.solved:
                        per_factor = None
                        break
                    per_factor.append(sub.code)
                if per_factor is None:
                    checks.append((f"{_rings.describe(desc)} on {net_name}",
                                   False, "factor search failed"))
                    continue
                code = (per_factor[0] if len(per_factor) == 1
                        else _transforms.product_code(per_factor))
                base_ok = _codes.verify_solution(net, code).solved
                if len(factors) > 1:
                    part = target_idx if target_idx is not None else 0
                    proj = _rings.RingHom(
                        code.module.ring, _rings.construct_ring(factors[part]),
                        tuple(code.module.ring.prod_parts(x)[part]
                              for x in range(code.module.ring.size)))
                    code = _transforms.hom_lift(
                        code, proj, _modules.scalar_module(proj.codomain))
                if target_idx is not None:
                    embed = _rings.find_homomorphisms(code.module.ring, big)
                    lifted = _transforms.hom_lift(
                        code, embed[0], _modules.scalar_module(big))
                    final_ok = _codes.verify_solution(net, lifted).solved
                    conclusion = f"solved over GF({p}^{k})"
                else:
                    final_ok = _codes.verify_solution(net, code).solved
                    r, q = blocks[0]
                    conclusion = f"solved over M_{r}(GF({q}))"
                checks.append(
                    (f"{_rings.describe(desc)} on {net_name}",
                     base_ok and final_ok, conclusion))
    return checks


_SUITES = {
    "explicit-m": _suite_explicit_m,
    "catalog": _suite_catalog,
    "choose-two": _suite_choose_two,
    "dim-n": _suite_dim_n,
    "pipeline": _suite_pipeline,
}


def _cmd_repro(args):
    checks = _SUITES[args.suite]()
    ok = all(c[1] for c in checks)
    result = {"suite": args.suite, "ok": ok,
              "checks": [{"name": n, "ok": o, "detail": d}
                         for (n, o, d) in checks]}
    return [], result, EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser

def _add_common(p):
    p.add_argument("-o", "--output", help="write the result JSON here "
                                          "instead of stdout")
    p.add_argument("--manifest", help="write a run manifest here")


@functools.lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argument parser; built once per process, since parsing leaves it
    unchanged and every main() call would otherwise rebuild it."""
    parser = _Parser(prog="netring",
                     description="finite-ring linear network codes")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring construction and checks")
    rsub = ring.add_subparsers(dest="action", required=True)
    rv = rsub.add_parser("verify")
    rv.add_argument("ring")
    rr = rsub.add_parser("radical")
    rr.add_argument("ring")
    rc = rsub.add_parser("catalog")
    rc.add_argument("p", type=int)
    rc.add_argument("k", type=int)
    rh = rsub.add_parser("homs")
    rh.add_argument("source")
    rh.add_argument("target")
    for p in (rv, rr, rc, rh):
        _add_common(p)
        p.set_defaults(func=_cmd_ring)

    module = sub.add_parser("module", help="module checks")
    module.add_argument("module")
    module.add_argument("--check", action="store_true")
    module.add_argument("--faithful", action="store_true")
    module.add_argument("--submodules", action="store_true")
    _add_common(module)
    module.set_defaults(func=_cmd_module)

    net = sub.add_parser("net", help="network generation and validation")
    nsub = net.add_subparsers(dest="action", required=True)
    ng = nsub.add_parser("gen")
    ng.add_argument("family", choices=sorted(_GENERATORS))
    ng.add_argument("size", type=int, nargs="?")
    nv = nsub.add_parser("validate")
    nv.add_argument("network")
    for p in (ng, nv):
        _add_common(p)
        p.set_defaults(func=_cmd_net)

    code = sub.add_parser("code", help="code verification and entropy")
    csub = code.add_subparsers(dest="action", required=True)
    cv = csub.add_parser("verify")
    cv.add_argument("network")
    cv.add_argument("code")
    cv.add_argument("--semantic", action="store_true",
                    help="also check every message assignment")
    ce = csub.add_parser("entropy")
    ce.add_argument("network")
    ce.add_argument("code")
    ce.add_argument("--vars", required=True,
                    help="comma-separated messages and/or edges (tail->head#o)")
    for p in (cv, ce):
        _add_common(p)
        p.set_defaults(func=_cmd_code)

    tr = sub.add_parser("transform", help="solution-preserving rewrites")
    tsub = tr.add_subparsers(dest="action", required=True)
    for name in ("mat2vec", "vec2mat", "ann-quotient"):
        tp = tsub.add_parser(name)
        tp.add_argument("code")
        _add_common(tp)
        tp.set_defaults(func=_cmd_transform)
    td = tsub.add_parser("dim-sum")
    td.add_argument("code")
    td.add_argument("other")
    _add_common(td)
    td.set_defaults(func=_cmd_transform)
    tp = tsub.add_parser("product")
    tp.add_argument("code")
    tp.add_argument("others", nargs="+")
    _add_common(tp)
    tp.set_defaults(func=_cmd_transform)
    th = tsub.add_parser("hom-lift")
    th.add_argument("code")
    th.add_argument("target", help="target ring JSON")
    th.add_argument("--hom-index", type=int, default=0)
    _add_common(th)
    th.set_defaults(func=_cmd_transform)
    ts = tsub.add_parser("simple-reduce")
    ts.add_argument("ring")
    _add_common(ts)
    ts.set_defaults(func=_cmd_transform)

    solve = sub.add_parser("solve", help="complete solvability search")
    ssub = solve.add_subparsers(dest="mode", required=True)
    ss = ssub.add_parser("scalar")
    ss.add_argument("network")
    ss.add_argument("--ring", required=True)
    sv = ssub.add_parser("vector")
    sv.add_argument("network")
    sv.add_argument("--field", required=True, help="p or p^k")
    sv.add_argument("--dim", type=int, required=True)
    sm = ssub.add_parser("smallest")
    sm.add_argument("network")
    sm.add_argument("--max-size", type=int, default=16)
    sm.add_argument("--catalog", help="JSON list of ring descriptors")
    for p in (ss, sv, sm):
        p.add_argument("--budget", type=int,
                       help="search-node budget (default NETRING_BUDGET)")
        p.add_argument("--time-budget", type=float)
        p.add_argument("--strategy", choices=_solver.STRATEGIES,
                       default="auto")
        p.add_argument("--no-normalize", action="store_true",
                       help="search single-input forwarders too")
        p.add_argument("--shards", type=int, default=1)
        p.add_argument("--shard-index", type=int, default=0)
        p.add_argument("--seed", type=int,
                       help="recorded in the manifest; no step is randomized")
        _add_common(p)
        p.set_defaults(func=_cmd_solve)

    repro = sub.add_parser("repro", help="canned reproduction suites")
    repro.add_argument("suite", choices=sorted(_SUITES))
    _add_common(repro)
    repro.set_defaults(func=_cmd_repro)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one subcommand.  Each handler returns the input files it read,
    its result (None when it has none to write) and the exit code; the
    result and the manifest are written here, timed from the start of the
    handler."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        inputs, result, code = args.func(args)
        if result is not None:
            _emit(args, inputs, result, t0)
        return code
    except (_DataError, ValueError, KeyError) as exc:
        print(f"netring: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

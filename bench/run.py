"""netring benchmark: one command, four closed-loop request workloads.

    python3 bench/run.py --workload rank|table|sweep|codes --seed N \
        --seconds S --trace 0|1

One client in one process on one thread (numpy's thread pools pinned to 1)
issues each workload's requests back to back, each only after the previous
one returned.  A pass issues every request of the workload once, in the
seeded order.  The first pass always runs in full; later passes repeat the
requests that took less than 0.1 s until ``--seconds`` have gone by, and
the last one stops where time runs out.
Every response is checked (see workloads.py).

``--trace 0`` prints the end-to-end metrics:

    run_s           one pass: the sum over requests of each request's
                    latency, its median over the passes that issued it
    request_s.p50   median request latency, a request's latency being its
                    median over the passes that issued it
    request_s.p90   90th-percentile request latency, likewise
    setup_s         median over fresh processes, started at even intervals
                    of the run, of process start to the first request
                    (imports plus input generation)
    peak_rss_mb     peak resident memory of this process after the passes
    ok_ratio        1 - failed / attempted
    decided_ratio   1 - budget stops / attempted

Times are read from ``hostclock``, which runs at a fixed reference speed
of the host: the shared host this benchmark runs on changes speed by up
to about 1.8x within a second, so wall time moves with the neighbours'
load.  The report gives the ratio of clock time to wall time over the run.

The two ratios are reported as complements so that no metric reads 0.
``--trace 1`` runs a checked warm-up pass, then untraced and traced
passes in turn for ``--seconds`` (at least one of each), and prints the
per-layer metrics of one traced pass, averaged over the traced passes; the
difference of the median traced and untraced pass is the tracing overhead.
Spans are timed in wall time, as ``SolveResult.stats`` are, so they include
the host clock's probes (a few percent of a pass).
The last stdout line is the result JSON; a fuller report, the verdict
digest store and the capped span log go to ``bench/results/``.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostclock  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_PROBES = 5
LONG_REQUEST_S = 0.1

RING_KINDS = ("prime_field", "galois_field", "integers_mod", "matrix",
              "upper_triangular", "product")
TRANSFORMS = ("hom_lift", "matrix_scalar_to_vector", "vector_to_matrix_scalar",
              "dim_sum", "product_code", "quotient_by_annihilator",
              "simple_reduction")


def _import_program() -> float:
    """Import the checkout's netring (never an installed copy) and the
    benchmark modules; returns the time the CLI entry point took."""
    if not (SRC / "netring" / "__init__.py").is_file():
        raise SystemExit(f"bench: no netring sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = hostclock.now()
    import netring.cli  # noqa: F401
    import_s = hostclock.now() - t0
    import netring
    if Path(netring.__file__).resolve().parent != SRC / "netring":
        raise SystemExit(f"bench: imported netring from {netring.__file__}")
    return import_s


def machine() -> dict:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) distribution.  It
    moves smoothly where the latencies are sparse (around p90 a few ranks
    can span a factor of two), where a nearest-rank percentile jumps when
    two requests swap places.  Needs (n+1)p and (n+1)(1-p) of at least 1."""
    import numpy as np
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    a, b = (n + 1) * p / 100, (n + 1) * (1 - p / 100)
    grid = 64                                   # integration steps per rank
    t = np.linspace(0.0, 1.0, grid * n + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pdf = np.nan_to_num((a - 1) * np.log(t) + (b - 1) * np.log1p(-t),
                                nan=-np.inf)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum(pdf[1:] + pdf[:-1])))
    return float(np.diff(cdf[::grid]) @ xs / cdf[-1])


# ---------------------------------------------------------------------------
# passes

def run_pass(reqs, tracer=None, check=False, deadline=None, between=None):
    """Issue every request once, back to back, or until the perf_counter
    deadline has passed; ``between`` is called before each request, outside
    its timing.  Returns the (id, status, witness digest) records, the
    latencies, and the problems found per request: raised errors, and with
    check, what ``workloads.check_output`` finds, checked right after the
    request so the responses need not be kept."""
    import workloads as wl
    records, latencies, problems = [], [], {}
    for req in reqs:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if between is not None:
            between()
        # start each request on a heap without the garbage of the previous
        # ones, as a fresh CLI process would; frozen objects are skipped by
        # the collections the request itself triggers
        gc.collect()
        gc.freeze()
        if tracer is not None:
            tracer.request = req.id
            tracer.enabled = True
            frame = tracer.begin("bench.request")
        t0 = hostclock.now()
        try:
            resp = wl.issue(req)
        except Exception as exc:  # a raising request is a failed request
            resp = None
            problems[req.id] = [f"{type(exc).__name__}: {exc}"]
        dt = hostclock.now() - t0
        if tracer is not None:
            tracer.end(frame)
            tracer.enabled = False
        latencies.append(dt)
        if resp is None:
            records.append((req.id, "raised", ""))
            continue
        records.append((req.id, resp.status, wl.witness_digest(resp)))
        if check:
            found = wl.check_output(req, resp)
            if found:
                problems[req.id] = found
        del resp
    gc.unfreeze()
    return records, latencies, problems


def judge(reqs, passes):
    """Count failed requests over all passes.  The first pass was checked
    in full; its verdicts are compared with the expected ones here, and a
    later pass fails a request whose record differs from the first."""
    import workloads as wl
    records0, _, problems0 = passes[0]
    wl.resolve_expectations(reqs)
    problems = {rid: list(msgs) for rid, msgs in problems0.items()}
    for req, rec in zip(reqs, records0):
        found = wl.check_status(req, rec[1])
        if found:
            problems.setdefault(req.id, []).extend(found)
    first = {rec[0]: rec for rec in records0}
    failed = 0
    budget = 0
    for records, _, errors in passes:
        for rec in records:
            rid = rec[0]
            rec0 = first[rid]
            if rid in problems or rid in errors or rec != rec0:
                failed += 1
                if rec != rec0:
                    problems.setdefault(rid, []).append(
                        f"record changed between passes: {rec} vs {rec0}")
            if rec[1] == wl.BUDGET:
                budget += 1
    return failed, budget, problems


def setup_probe(workload: str, seed: int) -> float:
    """Process start to first request, in a fresh process: the wall time
    until the child starts its host clock (interpreter start and the
    numpy import), plus the time on that clock until its inputs are
    built."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, check=True, timeout=120)
    child = json.loads(out.stdout.strip().splitlines()[-1])
    return child["started"] - t0 + child["setup_s"]


# ---------------------------------------------------------------------------
# metrics

def layer_metrics(tr, import_s: float, run_untraced: float,
                  run_traced: float, traced_passes: int) -> dict:
    """Per-layer metrics of one traced pass (the tracer holds per-pass
    values); the run times are medians over untraced and traced passes."""
    c = tr.counters

    def ratio(a, b):
        return a / b if b else 0.0

    def own(name):
        return tr.stats.get(name, [0, 0.0, 0.0])[2]

    rank_checks = c["rank.receiver_checks"]
    m = {
        "solver.rank.nodes": (c["rank.nodes"], "count"),
        "solver.rank.nodes_per_s": (ratio(c["rank.nodes"],
                                          c["rank.search_s"]), "1/s"),
        "solver.rank.receiver_checks": (rank_checks, "count"),
        "solver.rank.memo_hit_ratio": (
            ratio(c["rank.memo_hits"], c["rank.memo_hits"] + rank_checks),
            "ratio"),
        "solver.rank.post_search_s": (c["rank.post_search_s"], "s"),
        "solver.table.assignments": (c["table.assignments"], "count"),
        "solver.table.assignments_per_s": (
            ratio(c["table.assignments"], c["table.search_s"]), "1/s"),
        "solver.table.post_search_s": (c["table.post_search_s"], "s"),
        "solver.sweep.rings_decided": (c["sweep.rings_decided"], "count"),
        "solver.sweep.s_per_ring": (ratio(c["sweep.s"],
                                          c["sweep.rings_decided"]), "s"),
        "fieldlinalg.calls": (tr.calls("fieldlinalg"), "count"),
        "rings.construct_ring.self_s": (own("rings.construct_ring"), "s"),
        "rings.tables.self_s": (tr.self_time("rings.tables"), "s"),
    }
    for kind in RING_KINDS:
        m[f"rings.tables.{kind}.self_s"] = (
            tr.self_time(f"rings.tables.{kind}"), "s")
    for fn in ("two_sided_ideals", "radical", "quotient",
               "semisimple_decompose", "find_isomorphism"):
        m[f"rings.{fn}.self_s"] = (own(f"rings.{fn}"), "s")
    m.update({
        "networks.validate_network.self_s": (
            own("networks.validate_network"), "s"),
        "networks.inputs.calls": (tr.calls("networks.inputs"), "count"),
        "modules.is_faithful.self_s": (tr.self_time("modules.is_faithful"),
                                       "s"),
        "modules.scalar_module.self_s": (own("modules.scalar_module"), "s"),
        "codes.verify_solution.calls": (tr.calls("codes.verify_solution"),
                                        "count"),
        "codes.verify_solution.self_s": (own("codes.verify_solution"), "s"),
        "codes.semantic_verify.self_s": (own("codes.semantic_verify"), "s"),
        "codes.semantic.assignments_per_s": (
            ratio(c["semantic.assignments"], c["semantic.s"]), "1/s"),
        "codes.entropy_of.self_s": (own("codes.entropy_of"), "s"),
        "codes.json.self_s": (own("codes.code_to_json")
                              + own("codes.code_from_json"), "s"),
    })
    for fn in TRANSFORMS:
        m[f"transforms.{fn}.self_s"] = (own(f"transforms.{fn}"), "s")
    m.update({
        "cli.main.calls": (tr.calls("cli.main"), "count"),
        "cli.main.self_s": (own("cli.main"), "s"),
        "cli.import_s": (import_s, "s"),
    })
    for layer, s in tr.layer_self_times().items():
        m[f"{layer}.self_s"] = (s, "s")
    m["bench.self_s"] = (tr.self_time("bench"), "s")
    m["trace.run_s"] = (run_traced, "s")
    m["trace.overhead_s"] = (run_traced - run_untraced, "s")
    m["trace.spans"] = (tr.span_count / traced_passes, "count")
    return m


# ---------------------------------------------------------------------------
# results on disk

def record_digest(key: str, digest: str):
    """Store the verdict digest; returns the previous one when it changed."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / "digests.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    previous = store.get(key)
    store[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return previous if previous not in (None, digest) else None


def write_report(name: str, report: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True,
                               default=str) + "\n")
    return path


def write_spans(name: str, tracer) -> Path:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{name}-spans.jsonl"
    with open(path, "w") as fh:
        for sid, span, start, end, parent, request in tracer.spans:
            fh.write(json.dumps({"id": sid, "name": span, "start": start,
                                 "end": end, "parent": parent,
                                 "request": request}) + "\n")
    return path


# ---------------------------------------------------------------------------
# main

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("rank", "table", "sweep", "codes"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and build inputs, print readiness, exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    hostclock.start()
    try:
        return run_benchmark(args, started)
    finally:
        hostclock.stop()


def run_benchmark(args, started: float) -> int:
    clock0 = hostclock.now()
    import_s = _import_program()
    import workloads as wl
    reqs = wl.build(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"started": started,
                          "setup_s": hostclock.now() - clock0}))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wall_start, clock_start = time.perf_counter(), hostclock.now()
    tracer = None
    if args.trace:
        import tracing
        # a checked warm-up pass, then untraced and traced passes in turn
        # until the time is up, so that the overhead compares medians of
        # passes that met the same spells of the host
        tracer = tracing.Tracer()
        deadline = time.perf_counter() + args.seconds
        untraced, traced = [run_pass(reqs, check=True)], []
        while not traced or time.perf_counter() < deadline:
            untraced.append(run_pass(reqs))
            tracer.install()
            traced.append(run_pass(reqs, tracer))
            tracer.uninstall()
        passes = untraced + traced
        tracer.per_pass(len(traced))
    else:
        # the set-up probes are spread over the run, between requests, so
        # that their median does not rest on one spell of the host
        setups = []
        start = time.perf_counter()
        deadline = start + args.seconds

        def probe_when_due():
            if len(setups) < SETUP_PROBES and time.perf_counter() >= \
                    start + len(setups) * args.seconds / SETUP_PROBES:
                setups.append(setup_probe(args.workload, args.seed))

        passes = [run_pass(reqs, check=True, between=probe_when_due)]
        # a request of 0.1 s or more spans several probes of the host clock
        # and so averages the host over its own length; later passes leave
        # it out, so that the short ones get more samples
        short = [r for r, t in zip(reqs, passes[0][1]) if t < LONG_REQUEST_S]
        while time.perf_counter() < deadline:
            passes.append(run_pass(short, deadline=deadline,
                                   between=probe_when_due))
        while len(setups) < SETUP_PROBES:
            setups.append(setup_probe(args.workload, args.seed))
        untraced = passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, budget, problems = judge(reqs, passes)
    attempted = sum(len(p[0]) for p in passes)
    complete = [p for p in passes if len(p[0]) == len(reqs)]
    digests = [wl.verdict_digest(p[0]) for p in complete]
    digest = digests[0]
    consistent = len(set(digests)) == 1
    changed_from = record_digest(f"{args.workload}:{args.seed}", digest)
    correct = failed == 0 and consistent

    samples = {r.id: [] for r in reqs}
    for records, times, _ in untraced:
        for rec, t in zip(records, times):
            samples[rec[0]].append(t)
    latency = [statistics.median(samples[r.id]) for r in reqs]
    p90 = percentile(latency, 90)
    run_times = [sum(p[1]) for p in complete]
    if args.trace:
        metrics = layer_metrics(
            tracer, import_s, statistics.median(run_times[1:len(untraced)]),
            statistics.median(run_times[len(untraced):]), len(traced))
        write_spans(tag, tracer)
    else:
        metrics = {
            "run_s": (sum(latency), "s"),
            "request_s.p50": (percentile(latency, 50), "s"),
            "request_s.p90": (p90, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": (1 - failed / attempted, "ratio"),
            "decided_ratio": (1 - budget / attempted, "ratio"),
        }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": machine(),
        "passes": len(passes), "complete_passes": len(complete),
        "requests_per_pass": len(reqs),
        "attempted": attempted, "failed": failed, "budget_stops": budget,
        "failed_ratio": failed / attempted,
        "budget_stop_ratio": budget / attempted,
        "latency_samples": len(latency),
        "samples_beyond_p90": sum(1 for x in latency if x > p90),
        "pass_run_s": run_times,
        "clock_s_per_wall_s": (hostclock.now() - clock_start)
        / (time.perf_counter() - wall_start),
        "verdict_digest": digest, "digests_agree": consistent,
        "digest_changed_from": changed_from,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "requests": [{"id": r[0], "status": r[1], "witness": r[2],
                      "latency_s": t}
                     for r, t in zip(passes[0][0], latency)],
    }
    if not args.trace:
        report["setup_probes_s"] = setups
    if tracer is not None:
        report["largest_self_layer"] = max(tracer.layer_self_times().items(),
                                           key=lambda kv: kv[1])[0]
        report["spans"] = {name: {"calls": st[0], "total_s": st[1],
                                  "self_s": st[2]}
                           for name, st in sorted(tracer.stats.items())}
    path = write_report(tag, report)

    print("machine " + json.dumps(report["machine"], sort_keys=True))
    print(f"{args.workload}: {len(passes)} pass(es), {len(complete)} "
          f"complete, x {len(reqs)} requests, "
          f"{len(latency)} per-request latency samples, "
          f"{report['samples_beyond_p90']} beyond p90")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"verdict digest {digest}"
          + ("" if consistent else " (passes disagree)")
          + (f" CHANGED from {changed_from}" if changed_from else ""))
    for rid, msgs in sorted(problems.items()):
        print(f"FAILED {rid}: {'; '.join(msgs)}", file=sys.stderr)
    print(f"report {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

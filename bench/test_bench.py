"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""
import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import netring as nr  # noqa: E402

import hostclock  # noqa: E402
import netgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# cheap requests from every workload, by id prefix
SAMPLE = {
    "rank": ("c2/3/", "c2/4/", "vec/c2/2/", "gen/GF(2)/", "gen/GF(3)/1"),
    "table": ("c2/2/", "relay/", "gen/Z_4/", "exh/gen/GF(2)/"),
    "sweep": ("cut/8/1", "c2/4/1"),
    "codes": ("verify/pair/", "semantic/pair/GF(", "quotient_by_annihilator/pair/Z_",
              "json/pair/GF(2)", "entropy/pair/", "cli/repro/catalog"),
}


def sample(workload, seed=3):
    return [r for r in wl.build(workload, seed)
            if r.id.startswith(SAMPLE[workload])]


def test_generator_is_deterministic_per_seed():
    a = [netgen.random_network(random.Random(7)) for _ in range(3)]
    b = [netgen.random_network(random.Random(7)) for _ in range(3)]
    assert a == b
    assert a != [netgen.random_network(random.Random(8)) for _ in range(3)]
    for workload in wl.WORKLOADS:
        first = [(r.id, r.args, r.expect) for r in wl.build(workload, 11)]
        again = [(r.id, r.args, r.expect) for r in wl.build(workload, 11)]
        assert first == again, workload
        other = [(r.id, r.args) for r in wl.build(workload, 12)]
        assert [(i, a) for i, a, _ in first] != other, workload


def test_generated_networks_are_valid():
    rng = random.Random(1)
    for _ in range(200):
        data = netgen.random_network(rng)
        net = nr.network_from_json(json.loads(json.dumps(data)))
        for r in net.receivers:
            assert 2 <= len(net.inputs(r)) <= 3
            assert not net.out_edges(r)
    for k in (2, 3):
        for chain in (0, 1, 2):
            data = netgen.cut_deficient_network(rng, k, chain)
            net = nr.network_from_json(data)
            assert len(net.in_edges("t")) < len(net.demands["t"])


def _judge(reqs, passes):
    failed, _, problems = run.judge(reqs, passes)
    return failed, problems


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_sample_passes_clean(workload):
    reqs = sample(workload)
    assert reqs
    failed, problems = _judge(reqs, [run.run_pass(reqs, check=True)])
    assert failed == 0, problems


def test_wrong_verdict_counts_as_failed():
    reqs = sample("rank")
    passes = [run.run_pass(reqs, check=True)]
    wl.resolve_expectations(reqs)
    victim = next(r for r in reqs if r.expect == wl.SOLVED)
    victim.expect = wl.UNSOLVABLE
    failed, problems = _judge(reqs, passes)
    assert failed == 1 and victim.id in problems


def test_corrupted_witness_counts_as_failed(monkeypatch):
    reqs = sample("rank")
    victim = next(r for r in reqs if r.op == "scalar" and r.expect == wl.SOLVED)
    issue = wl.issue

    def corrupting(req):
        resp = issue(req)
        if req is victim:
            code = resp.value["code_json"]
            code["decodings"][0][2] = [0] * len(code["decodings"][0][2])
        return resp

    monkeypatch.setattr(wl, "issue", corrupting)
    failed, problems = _judge(reqs, [run.run_pass(reqs, check=True)])
    assert failed == 1
    assert "witness rejected" in problems[victim.id][0]


def test_raising_request_counts_as_failed():
    reqs = sample("table")
    victim = next(r for r in reqs if r.route is None)
    victim.args = json.dumps({"network": {}, "ring": {}, "options": {}})
    failed, problems = _judge(reqs, [run.run_pass(reqs, check=True)])
    assert failed == 1 and victim.id in problems


def test_changed_record_between_passes_counts_as_failed():
    reqs = sample("sweep")
    first = run.run_pass(reqs, check=True)
    records = list(first[0])
    records[0] = (records[0][0], records[0][1], "0" * 64)
    failed, _ = _judge(reqs, [first, (records,) + first[1:]])
    assert failed == 1
    # a later pass may leave requests out
    failed, problems = _judge(reqs, [first, run.run_pass(reqs[1:])])
    assert failed == 0, problems


def test_pass_cut_at_deadline_is_judged_on_what_it_issued():
    import time
    reqs = sample("codes")
    first = run.run_pass(reqs, check=True)
    warm = run.run_pass(reqs)
    cut = run.run_pass(reqs, deadline=time.perf_counter()
                       + sum(warm[1]) / 2)
    assert 0 < len(cut[0]) < len(reqs)
    assert cut[0] == first[0][:len(cut[0])]
    failed, problems = _judge(reqs, [first, cut])
    assert failed == 0, problems
    assert run.run_pass(reqs, deadline=time.perf_counter())[0] == []


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_and_untraced_digests_agree(workload):
    reqs = sample(workload)
    plain = run.run_pass(reqs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert nr.solve_scalar is not nr.solver.__dict__["_solve_rank"]
        assert hasattr(nr.solve_scalar, "__wrapped__")
        assert hasattr(nr.solver.verify_solution, "__wrapped__")
        traced = run.run_pass(reqs, tracer)
    finally:
        tracer.uninstall()
    assert not hasattr(nr.solve_scalar, "__wrapped__")
    assert not hasattr(nr.Network.inputs, "__wrapped__")
    assert wl.verdict_digest(plain[0]) == wl.verdict_digest(traced[0])
    assert tracer.span_count > 0


def test_per_pass_turns_totals_into_one_pass():
    reqs = sample("rank")
    tracer = tracing.Tracer()
    firsts = []
    for _ in range(2):
        tracer.install()
        try:
            run.run_pass(reqs, tracer)
        finally:
            tracer.uninstall()
        firsts.append((tracer.counters["rank.nodes"],
                       tracer.calls("fieldlinalg")))
    tracer.per_pass(2)
    assert firsts[0][0] > 0 and firsts[1] == (2 * firsts[0][0],
                                              2 * firsts[0][1])
    assert (tracer.counters["rank.nodes"],
            tracer.calls("fieldlinalg")) == firsts[0]


def test_self_time_excludes_children():
    import time
    tr = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = tr.wrap("x.inner", inner)

    def outer():
        wrapped_inner()
        time.sleep(0.01)

    wrapped_outer = tr.wrap("x.outer", outer)
    tr.enabled = True
    wrapped_outer()
    calls, total, own = tr.stats["x.outer"]
    assert calls == 1 and total >= 0.03
    assert 0.009 <= own < total - 0.015
    assert tr.stats["x.inner"][2] >= 0.02
    (inner_id, inner_name, _, _, inner_parent, _), \
        (outer_id, outer_name, _, _, outer_parent, _) = tr.spans
    assert (inner_name, outer_name) == ("x.inner", "x.outer")
    assert inner_parent == outer_id and outer_parent is None


def test_host_clock_runs_at_reference_speed(monkeypatch):
    import time
    # a host on which the kernel takes twice its reference time
    monkeypatch.setattr(hostclock, "KERNEL_REF_S", 0.0025)
    monkeypatch.setattr(hostclock, "kernel", lambda: time.sleep(0.005))
    monkeypatch.setattr(hostclock, "_state", hostclock._state)
    monkeypatch.setattr(hostclock, "_recent", [])
    wall = time.perf_counter()
    before = hostclock.now()
    time.sleep(0.02)
    assert hostclock.now() - before >= time.perf_counter() - wall - 1e-3
    hostclock.start()
    try:
        time.sleep(0.2)         # probes run during the sleep
    finally:
        hostclock.stop()
    assert len(hostclock._recent) == 3
    assert 0.4 < hostclock._state[2] <= 0.5     # the clock's rate
    wall = time.perf_counter()
    before = hostclock.now()
    hostclock._probe()          # its own 10 ms are left out of the clock
    time.sleep(0.05)
    elapsed = hostclock.now() - before
    assert 0.4 * 0.05 <= elapsed <= 0.5 * (time.perf_counter() - wall - 0.01)


def test_percentile_leaves_ten_samples_beyond_p90():
    xs = list(range(100))
    p90 = run.percentile(xs, 90)
    assert sum(1 for x in xs if x > p90) == 10
    assert run.percentile(xs, 50) == pytest.approx(49.5)
    assert run.percentile(xs[::-1], 50) == pytest.approx(49.5)
    # a sparse tail: the estimate weighs the ranks around the 90th
    tail = [1.0] * 89 + [2.0, 4.0] + [8.0] * 9
    assert 2.0 < run.percentile(tail, 90) < 8.0


def test_brute_force_route_matches_known_verdicts():
    z4 = nr.IntegersMod(4)
    assert wl.brute_force_status(nr.trivial_network(), z4) == wl.SOLVED
    cut = nr.network_from_json(
        netgen.cut_deficient_network(random.Random(2), 2, 1))
    assert wl.brute_force_status(cut, z4) == wl.UNSOLVABLE
    c2 = nr.choose_two_network(3)
    assert wl.brute_force_status(c2, nr.PrimeField(2)) == wl.SOLVED

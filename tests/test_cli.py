"""Command-line surface: exit codes, manifests, JSON plumbing."""
import hashlib
import json
import subprocess
import sys
import time

import pytest

from netring import cli, codes, rings

OK, FAIL, BUDGET, USAGE, DATA = 0, 1, 2, 64, 65


def run(*argv):
    return cli.main(list(argv))


@pytest.fixture
def files(tmp_path):
    """Common input files: the four-receiver network plus a few rings."""
    paths = {}
    paths["m"] = tmp_path / "m.json"
    run("net", "gen", "m", "-o", str(paths["m"]))
    paths["c3"] = tmp_path / "c3.json"
    run("net", "gen", "choose-two", "3", "-o", str(paths["c3"]))
    for name, desc in (("gf2", rings.PrimeField(2)),
                       ("z4", rings.IntegersMod(4)),
                       ("gf4", rings.GaloisField(2, 2))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(rings.descriptor_to_json(desc)))
    paths["dir"] = tmp_path
    return paths


def test_version_runs():
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0


def test_usage_error_is_64():
    with pytest.raises(SystemExit) as exc:
        run("solve", "bogus")
    assert exc.value.code == USAGE


def test_missing_file_is_65(files):
    assert run("solve", "scalar", "nope.json", "--ring",
               str(files["gf2"])) == DATA


def test_wrong_typed_input_is_65(files, capsys):
    listed = files["dir"] / "list.json"
    listed.write_text("[1, 2]")
    assert run("solve", "scalar", str(listed), "--ring",
               str(files["gf2"])) == DATA
    assert run("solve", "scalar", str(files["m"]), "--ring",
               str(listed)) == DATA
    assert run("code", "verify", str(files["m"]), str(listed)) == DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 3 and "Traceback" not in err


@pytest.mark.parametrize("flags", [("--shards", "2", "--shard-index", "5"),
                                   ("--shards", "0"),
                                   ("--budget", "0"),
                                   ("--time-budget", "0")])
def test_bad_search_options_are_65(files, flags, capsys):
    # an empty shard must not read as "exhausted-unsolvable"
    for ring in ("gf2", "z4"):
        assert run("solve", "scalar", str(files["m"]), "--ring",
                   str(files[ring]), *flags) == DATA
    assert run("solve", "vector", str(files["c3"]), "--field", "2",
               "--dim", "2", *flags) == DATA
    assert run("solve", "smallest", str(files["c3"]), "--max-size", "4",
               *flags) == DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 4 and "Traceback" not in err


@pytest.mark.parametrize("flags", [("--max-size", "0"), ("--max-size", "-5"),
                                   ("--max-size", "1"), ("--catalog", "[]")])
def test_degenerate_sweeps_are_65(files, flags, capsys):
    # an empty sweep must not read as "exhausted-unsolvable"
    if flags[0] == "--catalog":
        empty = files["dir"] / "empty.json"
        empty.write_text(flags[1])
        flags = ("--catalog", str(empty))
    assert run("solve", "smallest", str(files["c3"]), *flags) == DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("strategy", ["exhaustive", "rank"])
def test_sweep_strategy_is_65(files, strategy, capsys):
    # the sweep picks each ring's route itself, so a strategy has no effect
    assert run("solve", "smallest", str(files["c3"]), "--max-size", "4",
               "--strategy", strategy) == DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "strategy" in err


@pytest.mark.parametrize("strategy", ["exhaustive", "rank"])
def test_vector_strategy_is_65(files, strategy, capsys):
    # every dimension goes through the one decision procedure
    assert run("solve", "vector", str(files["c3"]), "--field", "2",
               "--dim", "2", "--strategy", strategy) == DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "strategy" in err


def test_sweep_to_a_large_size_stops_at_the_first_winner(files, tmp_path):
    # nothing is built up front, so the bound costs nothing once a ring solves
    out = tmp_path / "s.json"
    t0 = time.perf_counter()
    assert run("solve", "smallest", str(files["c3"]), "--max-size", "100000",
               "-o", str(out)) == OK
    assert time.perf_counter() - t0 < 5.0
    assert json.loads(out.read_text())["minimal_size"] == 2


def test_cut_deficient_network_exits_1_at_once(files, tmp_path):
    # three messages through a two-relay chain of single edges: the cut-set
    # bound settles every ring and module, so nothing is searched
    net = tmp_path / "cut.json"
    net.write_text(json.dumps({
        "nodes": ["s", "v1", "v2", "t"],
        "edges": [["s", "v1", 0], ["v1", "v2", 0], ["v2", "t", 0]],
        "messages": [["m1", "s"], ["m2", "s"], ["m3", "s"]],
        "demands": {"t": ["m1", "m2", "m3"]}}))
    out = tmp_path / "out.json"
    method = "cut-set bound at t: 1 edges for 3 messages"
    t0 = time.perf_counter()
    assert run("solve", "smallest", str(net), "--max-size", "256",
               "-o", str(out)) == FAIL
    assert time.perf_counter() - t0 < 2.0
    rep = json.loads(out.read_text())
    assert len(rep["verdicts"]) == 73
    assert {v["method"] for v in rep["verdicts"]} == {method}
    assert run("solve", "vector", str(net), "--field", "2", "--dim", "3",
               "-o", str(out)) == FAIL
    assert json.loads(out.read_text())["stats"]["cut"]["edges"] == [
        ["v2", "t", 0]]
    assert run("solve", "scalar", str(net), "--ring", str(files["z4"]),
               "-o", str(out)) == FAIL
    assert json.loads(out.read_text())["stats"]["method"] == method
    # over the one-element ring every message is zero: solved
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"kind": "table", "add": [[0]], "mul": [[0]]}))
    assert run("solve", "scalar", str(net), "--ring", str(zero),
               "-o", str(out)) == OK


def test_net_gen_and_validate(files, capsys):
    assert run("net", "validate", str(files["m"])) == OK
    out = json.loads(capsys.readouterr().out)
    assert out == {"ok": True, "issues": []}
    data = json.loads(files["m"].read_text())
    assert len(data["edges"]) == 16
    # an intentionally broken file still parses but fails validation
    data["edges"][0][0] = "ghost"
    bad = files["dir"] / "bad.json"
    bad.write_text(json.dumps(data))
    assert run("net", "validate", str(bad)) == FAIL


def test_net_validate_wrong_typed_input_is_65(files, capsys):
    listed = files["dir"] / "list.json"
    listed.write_text("[1, 2]")
    assert run("net", "validate", str(listed)) == DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_net_gen_needs_size():
    assert run("net", "gen", "dim-n") == DATA


def test_solve_exit_codes(files, tmp_path):
    out = tmp_path / "res.json"
    assert run("solve", "scalar", str(files["m"]), "--ring",
               str(files["gf2"]), "-o", str(out)) == FAIL
    res = json.loads(out.read_text())
    assert res["status"] == "exhausted-unsolvable" and res["code"] is None

    assert run("solve", "scalar", str(files["c3"]), "--ring",
               str(files["gf2"]), "-o", str(out)) == OK
    res = json.loads(out.read_text())
    assert res["status"] == "solved"
    code = codes.code_from_json(res["code"])
    assert code.module.ring.size == 2

    assert run("solve", "scalar", str(files["m"]), "--ring",
               str(files["gf2"]), "--budget", "4", "-o", str(out)) == BUDGET


def test_solve_scalar_settles_z4_by_its_quotient(files, tmp_path):
    out = tmp_path / "res.json"
    t0 = time.perf_counter()
    assert run("solve", "scalar", str(files["m"]), "--ring",
               str(files["z4"]), "-o", str(out)) == FAIL
    assert time.perf_counter() - t0 < 1.0
    res = json.loads(out.read_text())
    assert res["status"] == "exhausted-unsolvable" and res["code"] is None
    assert res["stats"]["method"] == "quotient onto GF(2) is unsolvable"


def test_solve_scalar_over_a_rng_is_65(files, tmp_path, capsys):
    # the even residues modulo 8: no identity, so no quotient argument and
    # no coefficient search applies
    rng = tmp_path / "rng.json"
    rng.write_text(json.dumps({
        "kind": "table", "unital": False,
        "add": [[(a + b) % 4 for b in range(4)] for a in range(4)],
        "mul": [[2 * a * b % 4 for b in range(4)] for a in range(4)]}))
    assert run("solve", "scalar", str(files["m"]), "--ring", str(rng)) == DATA
    err = capsys.readouterr().err
    assert err == "netring: the coefficient search requires a unital ring\n"


def test_a_table_that_is_not_a_ring_is_65(files, tmp_path, capsys):
    # Z_4's addition with GF(4)'s multiplication
    bad = {"kind": "table",
           "add": [[(a + b) % 4 for b in range(4)] for a in range(4)],
           "mul": [[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]]}
    ring = tmp_path / "bad.json"
    ring.write_text(json.dumps(bad))
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps([bad]))
    assert run("ring", "verify", str(ring)) == FAIL
    capsys.readouterr()
    assert run("solve", "scalar", str(files["c3"]), "--ring", str(ring)) == DATA
    assert run("solve", "smallest", str(files["m"]), "--catalog",
               str(catalog)) == DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and "Traceback" not in err
    assert err.count("is not a ring: left-distributive fails") == 2


def test_env_budget(files, tmp_path, monkeypatch):
    monkeypatch.setenv("NETRING_BUDGET", "4")
    assert run("solve", "scalar", str(files["m"]), "--ring",
               str(files["gf2"]), "-o", str(tmp_path / "o.json")) == BUDGET


def test_phase_timings_stay_out_of_the_result_digest(tmp_path):
    # a rank search reports how long each phase took; the digest must not
    # move with those timings
    c6, gf5 = tmp_path / "c2-6.json", tmp_path / "gf5.json"
    run("net", "gen", "choose-two", "6", "-o", str(c6))
    gf5.write_text(json.dumps(rings.descriptor_to_json(rings.PrimeField(5))))
    digests = []
    for i in range(2):
        out, man = tmp_path / f"res{i}.json", tmp_path / f"man{i}.json"
        assert run("solve", "scalar", str(c6), "--ring", str(gf5),
                   "-o", str(out), "--manifest", str(man)) == OK
        stats = json.loads(out.read_text())["stats"]
        assert set(stats["phase_seconds"]) == {"compile", "search",
                                               "witness", "verify"}
        assert stats["shape"] == "built"
        digests.append(json.loads(man.read_text())["result_digest"])
    assert digests[0] == digests[1]


def test_manifest_reproducible(files, tmp_path):
    outs, digests = [], []
    for i in range(2):
        out = tmp_path / f"res{i}.json"
        man = tmp_path / f"man{i}.json"
        assert run("solve", "scalar", str(files["c3"]), "--ring",
                   str(files["z4"]), "--seed", "7", "-o", str(out),
                   "--manifest", str(man)) == OK
        data = json.loads(man.read_text())
        outs.append(json.loads(out.read_text()))
        digests.append(data["result_digest"])
        assert set(data["inputs"]) == {str(files["c3"]), str(files["z4"])}
        assert data["subcommand"] == "solve scalar"
        assert data["options"]["seed"] == 7
        assert "wall_clock" in data
    assert digests[0] == digests[1]
    # the witness itself is bit-for-bit identical, timings aside (elapsed,
    # and phase_seconds, which the exhaustive engine reports too)
    for got in outs:
        got["stats"].pop("elapsed"), got["stats"].pop("phase_seconds")
    assert outs[0] == outs[1]


def test_solve_vector_and_smallest(files, tmp_path):
    out = tmp_path / "v.json"
    assert run("solve", "vector", str(files["c3"]), "--field", "2",
               "--dim", "2", "-o", str(out)) == OK
    assert json.loads(out.read_text())["status"] == "solved"
    assert run("solve", "smallest", str(files["c3"]), "--max-size", "4",
               "-o", str(out)) == OK
    rep = json.loads(out.read_text())
    assert rep["minimal_size"] == 2 and rep["winners"] == ["GF(2)"]
    assert run("solve", "vector", str(files["c3"]), "--field", "nope",
               "--dim", "2") == DATA


def test_solve_output_feeds_code_commands(files, tmp_path):
    # the saved search result is accepted wherever a bare code file is
    out = tmp_path / "witness.json"
    assert run("solve", "vector", str(files["c3"]), "--field", "2",
               "--dim", "2", "-o", str(out)) == OK
    assert run("code", "verify", str(files["c3"]), str(out)) == OK
    mat = tmp_path / "mat.json"
    assert run("transform", "vec2mat", str(out), "-o", str(mat)) == OK
    assert run("code", "verify", str(files["c3"]), str(mat)) == OK

    unsolved = tmp_path / "unsolved.json"
    assert run("solve", "scalar", str(files["m"]), "--ring",
               str(files["gf2"]), "-o", str(unsolved)) == FAIL
    assert run("code", "verify", str(files["m"]), str(unsolved)) == DATA


def test_ring_commands(files, tmp_path, capsys):
    assert run("ring", "verify", str(files["z4"])) == OK
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True and report["ring"] == "Z_4"

    assert run("ring", "radical", str(files["z4"])) == OK
    rad = json.loads(capsys.readouterr().out)
    assert rad["radical"] == [0, 2] and rad["quotient_blocks"] == [[1, 2]]

    assert run("ring", "catalog", "2", "4") == OK
    cat = json.loads(capsys.readouterr().out)
    assert cat["count"] == 6

    assert run("ring", "homs", str(files["gf2"]), str(files["gf4"])) == OK
    homs = json.loads(capsys.readouterr().out)
    assert homs["count"] == 1 and homs["maps"] == [[0, 1]]


def test_ring_structure_of_the_one_element_ring(tmp_path, capsys):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"kind": "table", "add": [[0]], "mul": [[0]]}))
    assert run("ring", "radical", str(zero)) == OK
    rad = json.loads(capsys.readouterr().out)
    assert rad["radical"] == [0] and rad["quotient_size"] == 1
    assert rad["quotient_blocks"] == []
    assert run("transform", "simple-reduce", str(zero)) == OK
    red = json.loads(capsys.readouterr().out)
    assert red["to_size"] == 1 and red["blocks"] == [] and red["map"] == [0]


def test_ring_radical_of_a_field_past_the_isomorphism_cap(tmp_path, capsys):
    gf = tmp_path / "gf512.json"
    gf.write_text(json.dumps({"kind": "galois-field", "p": 2, "k": 9}))
    assert run("ring", "radical", str(gf)) == OK
    rad = json.loads(capsys.readouterr().out)
    assert rad["radical"] == [0] and rad["quotient_blocks"] == [[1, 512]]


def test_ring_radical_of_a_rng_is_65(tmp_path, capsys):
    rng = tmp_path / "rng.json"
    rng.write_text(json.dumps({"kind": "table", "unital": False,
                               "add": [[0, 1], [1, 0]],
                               "mul": [[0, 0], [0, 0]]}))
    assert run("ring", "radical", str(rng)) == DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "is a rng" in err


def test_code_verify_and_entropy(files, tmp_path, capsys):
    out = tmp_path / "solved.json"
    run("solve", "scalar", str(files["c3"]), "--ring", str(files["gf2"]),
        "-o", str(out))
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(json.loads(out.read_text())["code"]))
    assert run("code", "verify", str(files["c3"]), str(code_file),
               "--semantic") == OK
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["solved"] is True and verdict["semantic"]["solved"] is True

    assert run("code", "entropy", str(files["c3"]), str(code_file),
               "--vars", "m1,m2") == OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["rank"] == 2 and rep["variables"] == ["m1", "m2"]

    assert run("code", "entropy", str(files["c3"]), str(code_file),
               "--vars", "m1,ghost->x") == DATA


def test_transform_round_trip(tmp_path, capsys):
    net, code = codes.explicit_m_network_code()
    net_file = tmp_path / "net.json"
    run("net", "gen", "m", "-o", str(net_file))
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(codes.code_to_json(code)))
    vec_file = tmp_path / "vec.json"
    assert run("transform", "mat2vec", str(code_file), "-o",
               str(vec_file)) == OK
    assert run("code", "verify", str(net_file), str(vec_file),
               "--semantic") == OK
    capsys.readouterr()
    back_file = tmp_path / "back.json"
    assert run("transform", "vec2mat", str(vec_file), "-o",
               str(back_file)) == OK
    assert json.loads(back_file.read_text()) == json.loads(
        code_file.read_text())


@pytest.mark.parametrize("suite", sorted(cli._SUITES))
def test_repro_suites_pass(suite, tmp_path):
    out = tmp_path / "suite.json"
    assert run("repro", suite, "-o", str(out)) == OK
    rep = json.loads(out.read_text())
    assert rep["ok"] is True
    assert rep["checks"] and all(c["ok"] for c in rep["checks"])


def test_repro_pipeline_output_is_pinned(capsys):
    # the suite solves each (network, factor ring) pair once; its report
    # must stay byte for byte what solving every entry afresh printed
    assert run("repro", "pipeline") == OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "b111e0e89eda4cee"


def test_parser_is_built_once_and_reused(files, tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "res.json"
    # options of one call must not carry over into the next
    assert run("solve", "scalar", str(files["m"]), "--ring",
               str(files["gf2"]), "--budget", "4", "-o", str(out)) == BUDGET
    assert json.loads(out.read_text())["status"] == "budget-exceeded"
    assert run("solve", "scalar", str(files["c3"]), "--ring",
               str(files["gf2"])) == OK
    assert json.loads(capsys.readouterr().out)["status"] == "solved"
    assert run("net", "validate", str(files["m"])) == OK
    assert json.loads(capsys.readouterr().out) == {"ok": True, "issues": []}
    listed = files["dir"] / "list.json"
    listed.write_text("[1, 2]")
    assert run("net", "validate", str(listed)) == DATA
    assert run("solve", "scalar", str(files["m"]), "--ring",
               str(files["z4"]), "--shards", "0") == DATA


def test_vector_search_below_the_threshold_is_exhausted(tmp_path):
    # choose-two(6) needs 2^k >= 5: dims 1 and 2 over GF(2) are both
    # searched to the end within one shared budget of 20,000 nodes
    net = tmp_path / "c2-6.json"
    assert run("net", "gen", "choose-two", "6", "-o", str(net)) == OK
    out = tmp_path / "res.json"
    assert run("solve", "vector", str(net), "--field", "2", "--dim", "2",
               "--budget", "20000", "-o", str(out)) == FAIL
    res = json.loads(out.read_text())
    assert res["status"] == "exhausted-unsolvable"
    assert res["stats"]["total_nodes"] <= 20000


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "netring.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip()


def test_sweep_stopped_by_its_budget_exits_2(files, tmp_path):
    # every ring is stopped, so no size is settled: not "unsolvable"
    out = tmp_path / "s.json"
    # (GF(2), the first ring, takes 34 nodes)
    assert run("solve", "smallest", str(files["m"]), "--max-size", "16",
               "--budget", "30", "-o", str(out)) == BUDGET
    rep = json.loads(out.read_text())
    assert rep["minimal_size"] is None and len(rep["verdicts"]) == 11
    assert {v["status"] for v in rep["verdicts"]} == {"budget-exceeded"}
    # the time budget bounds the whole sweep, not each ring
    d3 = tmp_path / "d3.json"
    assert run("net", "gen", "dim-n", "3", "-o", str(d3)) == OK
    t0 = time.perf_counter()
    assert run("solve", "smallest", str(d3), "--max-size", "64",
               "--time-budget", "0.5", "-o", str(out)) == BUDGET
    assert time.perf_counter() - t0 < 2.0
    # a sweep whose every ring is settled unsolvable still exits 1
    assert run("solve", "smallest", str(files["m"]), "--max-size", "4",
               "-o", str(out)) == FAIL


@pytest.mark.parametrize("flags", [(), ("--strategy", "exhaustive")])
def test_a_node_without_inputs_is_65(files, flags, capsys):
    net = files["dir"] / "inputless.json"
    net.write_text(json.dumps({
        "nodes": ["s", "u", "t"], "edges": [["s", "t", 0], ["u", "t", 0]],
        "messages": [["m", "s"]], "demands": {"t": ["m"]}}))
    assert run("net", "validate", str(net)) == FAIL
    assert json.loads(capsys.readouterr().out)["issues"] == [
        "node u sends on edges but has no inputs"]
    assert run("solve", "scalar", str(net), "--ring", str(files["gf2"]),
               *flags) == DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "node u sends on edges but has no inputs" in err


def test_module_checks(files, tmp_path, capsys):
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps({"kind": "vector", "dim": 2, "ring":
                               rings.descriptor_to_json(rings.PrimeField(2))}))
    assert run("module", str(mod), "--check", "--faithful",
               "--submodules") == OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["axioms"] == "all hold" and rep["faithful"] is True
    assert rep["annihilator"] == [0]
    # GF(2)^2 under M_2(GF(2)) is simple: 0 and the whole space
    assert rep["submodules"] == {"count": 2, "sizes": [1, 4]}


def _solved_code(files, tmp_path, name, *solve_args):
    out = tmp_path / f"code-{name}.json"
    assert run("solve", *solve_args, "-o", str(out)) == OK
    assert run("code", "verify", str(files["c3"]), str(out)) == OK
    return out


def test_transforms_give_codes_that_verify(files, tmp_path, capsys):
    c3 = str(files["c3"])
    gf2 = _solved_code(files, tmp_path, "gf2", "scalar", c3, "--ring",
                       str(files["gf2"]))
    gf3 = tmp_path / "gf3.json"
    gf3.write_text(json.dumps(rings.descriptor_to_json(rings.PrimeField(3))))
    gf3_code = _solved_code(files, tmp_path, "gf3", "scalar", c3, "--ring",
                            str(gf3))
    for action, *rest in (("ann-quotient",), ("dim-sum", str(gf2)),
                          ("product", str(gf3_code)),
                          ("hom-lift", str(files["gf4"]))):
        out = tmp_path / f"{action}.json"
        assert run("transform", action, str(gf2), *rest, "-o",
                   str(out)) == OK
        assert run("code", "verify", c3, str(out), "--semantic") == OK
    capsys.readouterr()
    # no homomorphism GF(2^2) -> GF(2): exit 1 and nothing written
    gf4_code = _solved_code(files, tmp_path, "gf4", "scalar", c3, "--ring",
                            str(files["gf4"]))
    out, man = tmp_path / "none.json", tmp_path / "none-manifest.json"
    assert run("transform", "hom-lift", str(gf4_code), str(files["gf2"]),
               "-o", str(out), "--manifest", str(man)) == FAIL
    assert not out.exists() and not man.exists()
    assert capsys.readouterr().err == "no ring homomorphism onto the target\n"


@pytest.mark.parametrize("index", [6, 99, -1])
def test_hom_index_outside_the_homomorphisms_is_65(files, tmp_path, capsys,
                                                   index):
    # M_2(GF(2)) has six automorphisms, indexed 0..5; any other index is
    # malformed input, not a failed lift (exit 1) and not a wrap-around
    m2 = tmp_path / "m2.json"
    m2.write_text(json.dumps(rings.descriptor_to_json(
        rings.MatrixRing(rings.PrimeField(2), 2))))
    code = _solved_code(files, tmp_path, "m2", "scalar", str(files["c3"]),
                        "--ring", str(m2))
    out = tmp_path / "lifted.json"
    assert run("transform", "hom-lift", str(code), str(m2), "--hom-index",
               "5", "-o", str(out)) == OK
    assert run("code", "verify", str(files["c3"]), str(out)) == OK
    capsys.readouterr()
    out.unlink()
    assert run("transform", "hom-lift", str(code), str(m2), "--hom-index",
               str(index), "-o", str(out)) == DATA
    assert not out.exists()
    err = capsys.readouterr().err
    assert err == (f"netring: hom index {index} is outside 0..5; there are 6 "
                   "ring homomorphisms onto the target\n")


def test_solve_routes_give_codes_that_verify(files, tmp_path):
    c3 = str(files["c3"])
    _solved_code(files, tmp_path, "v4", "vector", c3, "--field", "2^2",
                 "--dim", "2")
    _solved_code(files, tmp_path, "raw", "scalar", c3, "--ring",
                 str(files["gf2"]), "--no-normalize")


@pytest.mark.parametrize("argv, subcommand", [
    (("ring", "verify", "{z4}"), "ring verify"),
    (("ring", "catalog", "2", "2"), "ring catalog"),
    (("module", "{mod}"), "module"),
    (("net", "gen", "m"), "net gen"),
    (("net", "validate", "{m}"), "net validate"),
    (("transform", "simple-reduce", "{z4}"), "transform simple-reduce"),
    (("solve", "smallest", "{c3}", "--max-size", "4"), "solve smallest"),
    (("repro", "catalog"), "repro catalog"),
], ids=lambda x: x if isinstance(x, str) else None)
def test_manifest_names_the_subcommand(files, tmp_path, argv, subcommand):
    mod = tmp_path / "mod.json"
    mod.write_text(json.dumps({"kind": "scalar", "ring":
                               rings.descriptor_to_json(rings.PrimeField(2))}))
    paths = {key: str(val) for key, val in files.items()} | {"mod": str(mod)}
    man = tmp_path / "manifest.json"
    assert run(*(a.format(**paths) for a in argv), "-o",
               str(tmp_path / "out.json"), "--manifest", str(man)) == OK
    data = json.loads(man.read_text())
    assert data["subcommand"] == subcommand
    assert data["result_digest"] == cli._digest(
        json.loads((tmp_path / "out.json").read_text()))


def _one_line_65(capsys, count):
    err = capsys.readouterr().err
    assert err.count("\n") == count and "Traceback" not in err
    return err


def _network_file(files, name, **changes):
    data = json.loads(files["c3"].read_text())
    data.update(changes)
    path = files["dir"] / name
    path.write_text(json.dumps(data))
    return str(path)


def test_demands_given_as_a_list_are_65(files, capsys):
    net = _network_file(files, "listed.json", demands=[["t1_2", "m1"]])
    assert run("net", "validate", net) == DATA
    assert run("solve", "scalar", net, "--ring", str(files["gf2"])) == DATA
    assert run("solve", "smallest", net, "--max-size", "4") == DATA
    err = _one_line_65(capsys, 3)
    assert "demands is an object" in err


@pytest.mark.parametrize("nodes", ["sv1", None, {"s": 1}])
def test_nodes_that_are_not_a_list_are_65(files, nodes, capsys):
    net = _network_file(files, "nodes.json", nodes=nodes)
    assert run("solve", "scalar", net, "--ring", str(files["gf2"])) == DATA
    assert run("net", "validate", net) == DATA
    _one_line_65(capsys, 2)


@pytest.mark.parametrize("ordinal", [0.5, True, "0", None])
def test_an_ordinal_that_is_not_an_integer_is_65(files, tmp_path, ordinal,
                                                  capsys):
    out = tmp_path / "solved.json"
    assert run("solve", "scalar", str(files["c3"]), "--ring",
               str(files["gf2"]), "-o", str(out)) == OK
    data = json.loads(files["c3"].read_text())
    data["edges"][0][2] = ordinal
    net = _network_file(files, "ordinal.json", edges=data["edges"])
    assert run("solve", "scalar", net, "--ring", str(files["gf2"])) == DATA
    assert run("code", "verify", net, str(out)) == DATA
    err = _one_line_65(capsys, 2)
    assert "edges[0] has the ordinal" in err


@pytest.mark.parametrize("name", [None, 1.5, True, ["s"]])
def test_a_node_that_is_not_a_name_is_65(files, name, capsys):
    data = json.loads(files["c3"].read_text())
    net = _network_file(files, "named.json", nodes=data["nodes"] + [name])
    assert run("net", "validate", net) == DATA
    assert run("solve", "scalar", net, "--ring", str(files["gf2"])) == DATA
    err = _one_line_65(capsys, 2)
    assert f"nodes[{len(data['nodes'])}] is a name" in err


def test_an_integer_name_is_read_as_its_text(files, capsys):
    net = files["dir"] / "numbered.json"
    net.write_text(json.dumps({
        "nodes": [1, 2], "edges": [[1, 2, 0]], "messages": [["m", 1]],
        "demands": {"2": ["m"]}}))
    assert run("net", "validate", str(net)) == OK
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.fixture
def solved_code(files, tmp_path):
    out = tmp_path / "solved.json"
    assert run("solve", "scalar", str(files["c3"]), "--ring",
               str(files["gf2"]), "-o", str(out)) == OK
    return json.loads(out.read_text())["code"]


@pytest.mark.parametrize("coefficient", ["1", 1.9, True, None])
def test_a_coefficient_that_is_not_an_integer_is_65(files, solved_code,
                                                     coefficient, capsys):
    solved_code["edges"][0][3][0] = coefficient
    path = files["dir"] / "coded.json"
    path.write_text(json.dumps(solved_code))
    assert run("code", "verify", str(files["c3"]), str(path)) == DATA
    err = _one_line_65(capsys, 1)
    assert "not a list of integers" in err


def test_a_decoding_coefficient_that_is_not_an_integer_is_65(
        files, solved_code, capsys):
    solved_code["decodings"][0][2][0] = "1"
    path = files["dir"] / "coded.json"
    path.write_text(json.dumps(solved_code))
    assert run("code", "verify", str(files["c3"]), str(path)) == DATA
    _one_line_65(capsys, 1)


def test_an_edge_or_a_decoding_listed_twice_is_65(files, solved_code,
                                                  capsys):
    twice = dict(solved_code, edges=solved_code["edges"]
                 + [solved_code["edges"][0]])
    path = files["dir"] / "twice.json"
    path.write_text(json.dumps(twice))
    assert run("code", "verify", str(files["c3"]), str(path)) == DATA
    t, h, _, _ = solved_code["edges"][0]
    assert f"edge {t}->{h} is listed twice" in _one_line_65(capsys, 1)
    twice = dict(solved_code, decodings=solved_code["decodings"]
                 + [solved_code["decodings"][-1]])
    path.write_text(json.dumps(twice))
    assert run("code", "verify", str(files["c3"]), str(path)) == DATA
    r, m, _ = solved_code["decodings"][-1]
    assert f"decoding ({r}, {m}) is listed twice" in _one_line_65(capsys, 1)


GF2 = {"kind": "prime-field", "p": 2}
F2_TABLE = {"kind": "table", "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}


@pytest.mark.parametrize("command, field, data", [
    ("ring", "p", {"kind": "prime-field", "p": 2.5}),
    ("ring", "p", {"kind": "prime-field", "p": "3"}),
    ("ring", "k", {"kind": "galois-field", "p": 2, "k": 2.0}),
    ("ring", "poly", {"kind": "galois-field", "p": 2, "k": 2,
                      "poly": [1, 1, "1"]}),
    ("ring", "n", {"kind": "integers-mod", "n": True}),
    ("ring", "k", {"kind": "matrix", "inner": GF2, "k": "2"}),
    ("ring", "k", {"kind": "upper-triangular", "field": GF2, "k": 2.5}),
    ("ring", "add", dict(F2_TABLE, add=[[0, 1], [1, 0.0]])),
    ("ring", "mul", dict(F2_TABLE, mul=[[0, 0], "01"])),
    ("ring", "one", dict(F2_TABLE, one=1.0)),
    ("ring", "unital", dict(F2_TABLE, unital="no")),
    ("module", "dim", {"kind": "vector", "ring": GF2, "dim": 2.9}),
    ("module", "p", {"kind": "scalar", "ring": {"kind": "prime-field",
                                                "p": "2"}}),
], ids=lambda x: x if isinstance(x, str) else None)
def test_a_ring_or_module_number_of_the_wrong_type_is_65(
        tmp_path, command, field, data, capsys):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(data))
    argv = {"ring": ["ring", "verify", str(path)],
            "module": ["module", str(path), "--check"]}[command]
    assert run(*argv) == DATA
    err = _one_line_65(capsys, 1)
    assert f'"{field}" must be' in err

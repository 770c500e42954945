import json

import pytest

from isreconf import Graph, InputError
from isreconf.cli import main
from isreconf.dimacs import emit_graph, parse_graph

from helpers import cycle_graph, path_graph, random_graph


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_instance(tmp_path, g, sidecar, name="inst"):
    gpath = tmp_path / f"{name}.gr"
    gpath.write_text(emit_graph(g))
    (tmp_path / f"{name}.gr.json").write_text(json.dumps(sidecar))
    return str(gpath)


def test_parse_graph_p3():
    g = parse_graph("c tiny\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g == path_graph([1, 2, 3])


def test_parse_graph_k1():
    g = parse_graph("p edge 1 0\n")
    assert g.n == 1 and g.m == 0


def test_parse_graph_errors_carry_line_numbers():
    with pytest.raises(InputError, match="line 2"):
        parse_graph("p edge 2 1\ne 1 1\n")
    with pytest.raises(InputError, match="line 3"):
        parse_graph("c ok\np edge 2 1\ne 1 5\n")
    with pytest.raises(InputError, match="line 1"):
        parse_graph("e 1 2\n")
    with pytest.raises(InputError):
        parse_graph("")


def test_parse_merges_duplicate_edges():
    g = parse_graph("p edge 2 2\ne 1 2\ne 2 1\n")
    assert g.m == 1


def test_round_trip_random_graphs():
    import random
    rng = random.Random(12)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 12), 0.4)
        assert parse_graph(emit_graph(g)) == g
        # shuffled lines, flipped endpoints and repeated edges parse to the same masks
        edges = [e[::-1] if rng.random() < 0.5 else e for e in g.edges()]
        edges += rng.sample(edges, len(edges) // 2)
        rng.shuffle(edges)
        text = f"p edge {g.n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)
        parsed = parse_graph(text)
        assert parsed == Graph(range(1, g.n + 1), edges) == g
        assert parsed._adj == g._adj and parsed._uid == g._uid


def test_solve_tar_frozen_c4(tmp_path, capsys):
    gpath = write_instance(tmp_path, cycle_graph([1, 2, 3, 4]),
                           {"rule": "tar", "k": 1, "start": [1, 3], "target": [2, 4]})
    code, out, _ = run(capsys, "solve", gpath, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] == "no"
    assert set(payload["stats"]) == {"width", "nodes_deleted", "rule_applications", "elapsed_ms"}


def test_solve_certify_round_trip(tmp_path, capsys):
    gpath = write_instance(tmp_path, path_graph([1, 2, 3]),
                           {"rule": "tar", "k": 1, "start": [1], "target": [3]})
    code, out, _ = run(capsys, "solve", gpath, "--certify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["answer"] == "yes"
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps(payload["sequence"]))
    code, out, _ = run(capsys, "verify", gpath, "--sequence", str(seq_path), "--json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["answer"] == "valid"
    assert verdict["final"] == [3]


def test_verify_rejects_bad_sequence(tmp_path, capsys):
    gpath = write_instance(tmp_path, path_graph([1, 2, 3]),
                           {"rule": "tar", "k": 1, "start": [1], "target": [3]})
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps([{"op": "remove", "v": 1}]))
    code, out, _ = run(capsys, "verify", gpath, "--sequence", str(seq_path), "--json")
    assert code == 0
    verdict = json.loads(out)
    assert verdict["answer"] == "invalid" and verdict["index"] == 1


def test_solve_tj_size_mismatch_is_a_no(tmp_path, capsys):
    gpath = write_instance(tmp_path, path_graph([1, 2, 3]),
                           {"rule": "tj", "start": [1, 3], "target": [2]})
    code, out, _ = run(capsys, "solve", gpath, "--json")
    assert code == 0
    assert json.loads(out)["answer"] == "no"


def test_solve_ts(tmp_path, capsys):
    gpath = write_instance(tmp_path, path_graph([1, 2, 3]),
                           {"rule": "ts", "start": [1], "target": [3]})
    code, out, _ = run(capsys, "solve", gpath, "--json")
    assert code == 0
    assert json.loads(out)["answer"] == "yes"
    code, _, _ = run(capsys, "solve", gpath, "--certify", "--json")
    assert code == 2


def test_tar_threshold_above_sizes_is_input_error(tmp_path, capsys):
    gpath = write_instance(tmp_path, path_graph([1, 2, 3]),
                           {"rule": "tar", "k": 2, "start": [1], "target": [3]})
    code, _, err = run(capsys, "solve", gpath, "--json")
    assert code == 2
    assert "error" in err


def test_lambda_zero_floor_is_alpha(tmp_path, capsys):
    gpath = write_instance(tmp_path, cycle_graph([1, 2, 3, 4, 5]),
                           {"rule": "tar", "k": 0, "start": [1], "target": []})
    code, out, _ = run(capsys, "lambda", gpath, "--certify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 2
    assert payload["sequence"]
    # the floor only constrains the start side for this command
    code, out, _ = run(capsys, "lambda", gpath, "--k", "1", "--json")
    assert code == 0
    assert json.loads(out)["size"] == 2


def test_alpha_and_decompose(tmp_path, capsys):
    gpath = write_instance(tmp_path, cycle_graph([1, 2, 3, 4]), {})
    code, out, _ = run(capsys, "alpha", gpath, "--json")
    assert code == 0 and json.loads(out)["size"] == 2
    code, out, _ = run(capsys, "decompose", gpath, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["width"] == 2 and payload["nd"] == 2
    assert payload["tree"]["kind"] == "series"


def test_oracle_command_and_cap(tmp_path, capsys, monkeypatch):
    gpath = write_instance(tmp_path, cycle_graph([1, 2, 3, 4]),
                           {"rule": "tar", "k": 0, "start": [1, 3], "target": [2, 4]})
    code, out, _ = run(capsys, "oracle", gpath, "--json")
    assert code == 0 and json.loads(out)["answer"] == "yes"
    monkeypatch.setenv("RECONF_ORACLE_CAP", "3")
    code, _, err = run(capsys, "oracle", gpath, "--json")
    assert code == 2 and "cap" in err


def test_gen_then_solve(tmp_path, capsys):
    out_prefix = tmp_path / "demo"
    code, out, _ = run(capsys, "gen", "--seed", "5",
                       "--profile", "n=12,width=3,rule=tar",
                       "--out", str(out_prefix), "--json")
    assert code == 0
    info = json.loads(out)
    code, out, _ = run(capsys, "solve", info["graph"], "--json")
    assert code == 0
    assert json.loads(out)["answer"] in ("yes", "no")
    # determinism: regenerating gives identical files
    text = (tmp_path / "demo.gr").read_text()
    code, _, _ = run(capsys, "gen", "--seed", "5",
                     "--profile", "n=12,width=3,rule=tar",
                     "--out", str(out_prefix), "--json")
    assert (tmp_path / "demo.gr").read_text() == text


def test_bench_csv_schema(capsys):
    code, out, _ = run(capsys, "bench", "--seeds", "0:3",
                       "--profile", "n=10,width=3,rule=tar")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "instance_id,n,m,width,rule,k,answer,solver_ms,oracle_ms"
    assert len(lines) == 4
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[6] in ("yes", "no")
        assert fields[8] != ""   # oracle ran at n=10


def test_bad_profile_and_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--seed", "1", "--profile", "oops")
    assert code == 2
    code, _, err = run(capsys, "solve", str(tmp_path / "nope.gr"), "--json")
    assert code == 2


def test_verify_ts_sequence(tmp_path, capsys):
    gpath = write_instance(tmp_path, path_graph([1, 2, 3]),
                           {"rule": "ts", "start": [1], "target": [3]})
    seq_path = tmp_path / "seq.json"
    seq_path.write_text(json.dumps([{"op": "slide", "u": 1, "v": 2},
                                    {"op": "slide", "u": 2, "v": 3}]))
    code, out, _ = run(capsys, "verify", gpath, "--sequence", str(seq_path), "--json")
    assert code == 0
    assert json.loads(out)["answer"] == "valid"


def test_certify_self_check_failure_exits_3(tmp_path, capsys, monkeypatch):
    import isreconf.cli as cli_mod
    gpath = write_instance(tmp_path, path_graph([1, 2, 3]),
                           {"rule": "tar", "k": 1, "start": [1], "target": [3]})
    monkeypatch.setattr(cli_mod, "verify_sequence", lambda g, seq: frozenset({1}))
    code, _, err = run(capsys, "solve", gpath, "--certify", "--json")
    assert code == 3
    assert "internal" in err


def test_bench_worker_pool(capsys):
    code, out, _ = run(capsys, "bench", "--seeds", "0:4",
                       "--profile", "n=9,width=3,rule=ts", "--workers", "2")
    assert code == 0
    assert len(out.strip().splitlines()) == 5


def test_closed_stdout_exits_quietly(tmp_path):
    # the output (a 1500-leaf tree) outgrows a pipe buffer, so the writer
    # blocks until the reader closes its end and then gets a broken pipe
    import os
    import subprocess
    import sys
    from pathlib import Path

    gpath = tmp_path / "wide.gr"
    gpath.write_text(emit_graph(Graph(range(1, 1501))))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.Popen([sys.executable, "-m", "isreconf.cli", "decompose", str(gpath)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""

import json
import os
import struct
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest

from chronolink import (
    NegativeSampleSet,
    RecurrencyScorer,
    add_inverse_relations,
    brute_force_evaluate,
    cli,
    evaluation,
    load_graph_dir,
    load_splits,
    merge,
    negatives,
    read_negative_set,
    write_graph_dir,
    write_negative_set,
)
from chronolink.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_FETCH,
    EXIT_INTEGRITY,
    EXIT_OK,
    EXIT_PROTOCOL,
    EXIT_UNEXPECTED,
    MANIFEST_REFERENCE,
    main,
)
from chronolink.datasets import DatasetManifest, checksum_file, read_vocab
from chronolink.graph import Granularity

SYNTH_CFG = """\
node_count = 35
relation_count = 3
timestep_count = 40
rate = 6
p_rep = 0.4
seed = 17
"""


@pytest.fixture
def pipeline(tmp_path):
    """synth -> split once per test module invocation directory."""
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG)
    graph_dir = tmp_path / "graph"
    splits_dir = tmp_path / "splits"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(graph_dir)]) == EXIT_OK
    assert main(["split", "--graph", str(graph_dir), "--out-dir", str(splits_dir)]) == EXIT_OK
    return tmp_path, graph_dir, splits_dir


def test_pipeline_end_to_end(pipeline, capsys):
    tmp_path, graph_dir, splits_dir = pipeline
    stats_dir = tmp_path / "stats"
    assert main(["stats", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--out-dir", str(stats_dir)]) == EXIT_OK
    assert (stats_dir / "stats.txt").exists()
    assert (stats_dir / "edges_over_time.tsv").exists()
    assert (stats_dir / "relation_histogram.tsv").exists()

    neg_dir = tmp_path / "negatives"
    assert main(["negatives", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "test", "--strategy", "type-aware", "--q", "8",
                 "--seed", "5", "--out-dir", str(neg_dir)]) == EXIT_OK

    eval_dir = tmp_path / "eval"
    assert main(["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "test", "--scorer", "oracle",
                 "--negatives", str(neg_dir / "negatives.bin"),
                 "--out-dir", str(eval_dir)]) == EXIT_OK
    result = (eval_dir / "result.txt").read_text()
    assert "mrr = 1\n" in result
    assert result.startswith("# manifest: run_manifest.json")

    report_dir = tmp_path / "report"
    assert main(["report", "--results", str(eval_dir), "--out-dir", str(report_dir)]) == EXIT_OK
    assert (report_dir / "summary.tsv").read_text() == MANIFEST_REFERENCE + (
        "run\tmrr\thits@1\thits@3\thits@10\tquery_count\neval\t1\t1\t1\t1\t98\n")


def test_report_of_a_result_line_without_equals_is_config_error(tmp_path, capsys):
    result_dir = tmp_path / "eval"
    result_dir.mkdir()
    result = result_dir / "result.txt"
    result.write_text(MANIFEST_REFERENCE + "mrr = 0.5\nhits@1 0.25\n")
    assert main(["report", "--results", str(result_dir),
                 "--out-dir", str(tmp_path / "report")]) == EXIT_CONFIG
    assert f"{result} line 3: malformed line 'hits@1 0.25'" in capsys.readouterr().err


def test_every_scorer_runs(pipeline):
    tmp_path, graph_dir, splits_dir = pipeline
    for i, scorer in enumerate(
        ["constant", "edgebank-inf", "edgebank-tw", "recurrency", "recurrency-trained"]
    ):
        out = tmp_path / f"eval_{scorer}"
        args = ["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                "--split", "valid", "--scorer", scorer, "--out-dir", str(out)]
        if scorer == "recurrency-trained":
            args += ["--params", "lambda_grid=0.1/1.0,alpha_grid=0.9,window_grid=0"]
        assert main(args) == EXIT_OK, scorer
        assert (out / "params.txt").exists()


def test_g4_stats_via_cli(tmp_path, g4_path):
    graph_dir = tmp_path / "g4"
    assert main(["ingest", "--edgelist", str(g4_path), "--granularity", "year",
                 "--out-dir", str(graph_dir)]) == EXIT_OK
    assert (graph_dir / "nodes.vocab").exists()
    stats_dir = tmp_path / "stats"
    assert main(["stats", "--graph", str(graph_dir), "--test-start", "3",
                 "--out-dir", str(stats_dir)]) == EXIT_OK
    text = (stats_dir / "stats.txt").read_text()
    assert "consecutiveness = 1.5" in text
    assert "recurrency = 1\n" in text
    assert "direct_recurrency = 0\n" in text


def test_ingest_skip_mode(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,subject,relation,object\n0,a,r,b\n1,a,r,\n2,b,r,a\n")
    out = tmp_path / "graph"
    assert main(["ingest", "--edgelist", str(bad), "--out-dir", str(out)]) == EXIT_DATA
    assert main(["ingest", "--edgelist", str(bad), "--on-invalid", "skip",
                 "--out-dir", str(out)]) == EXIT_OK
    report = (out / "ingest_report.txt").read_text()
    assert "skipped_lines = 3" in report


def test_eval_cutoffs_below_one_exit_config(pipeline):
    tmp_path, graph_dir, splits_dir = pipeline
    out = tmp_path / "eval"
    assert main(["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "test", "--scorer", "oracle", "--ks", "0,-3",
                 "--out-dir", str(out)]) == EXIT_CONFIG
    assert not (out / "result.txt").exists()


def test_byte_identical_reruns(pipeline):
    tmp_path, graph_dir, splits_dir = pipeline
    outputs = []
    for name in ("n1", "n2"):
        out = tmp_path / name
        assert main(["negatives", "--graph", str(graph_dir), "--splits", str(splits_dir),
                     "--split", "test", "--strategy", "random", "--q", "6",
                     "--seed", "9", "--out-dir", str(out)]) == EXIT_OK
        outputs.append((out / "negatives.bin").read_bytes())
    assert outputs[0] == outputs[1]

    results = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert main(["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                     "--split", "test", "--scorer", "recurrency",
                     "--negatives", str(tmp_path / "n1" / "negatives.bin"),
                     "--out-dir", str(out)]) == EXIT_OK
        results.append((out / "result.txt").read_bytes())
    assert results[0] == results[1]


def test_replay_is_bit_exact(pipeline):
    tmp_path, graph_dir, splits_dir = pipeline
    out = tmp_path / "neg"
    assert main(["negatives", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "valid", "--strategy", "type-aware", "--q", "5",
                 "--seed", "3", "--out-dir", str(out)]) == EXIT_OK
    replay_dir = tmp_path / "replayed"
    assert main(["replay", "--manifest", str(out / "run_manifest.json"),
                 "--out-dir", str(replay_dir)]) == EXIT_OK
    assert (replay_dir / "negatives.bin").read_bytes() == (out / "negatives.bin").read_bytes()


def test_replay_detects_tampering(pipeline):
    tmp_path, graph_dir, splits_dir = pipeline
    out = tmp_path / "neg"
    assert main(["negatives", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "valid", "--strategy", "random", "--q", "5",
                 "--seed", "3", "--out-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    manifest["outputs"]["negatives.bin"] = "sha256:" + "0" * 64
    (out / "run_manifest.json").write_text(json.dumps(manifest))
    assert main(["replay", "--manifest", str(out / "run_manifest.json"),
                 "--out-dir", str(tmp_path / "r2")]) == EXIT_INTEGRITY


def test_replay_rejects_removed_threads_flag(pipeline, capsys):
    tmp_path, graph_dir, splits_dir = pipeline
    out = tmp_path / "neg"
    assert main(["negatives", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "valid", "--strategy", "random", "--q", "5",
                 "--seed", "3", "--out-dir", str(out)]) == EXIT_OK
    manifest = json.loads((out / "run_manifest.json").read_text())
    manifest["argv"] += ["--threads", "1"]  # as written by older releases
    (out / "run_manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(SystemExit) as exit_info:
        main(["replay", "--manifest", str(out / "run_manifest.json"),
              "--out-dir", str(tmp_path / "r")])
    assert exit_info.value.code == EXIT_CONFIG
    assert "--threads" in capsys.readouterr().err


def test_manifest_contents(pipeline):
    tmp_path, graph_dir, splits_dir = pipeline
    manifest = json.loads((graph_dir / "run_manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 17
    assert manifest["outputs"]  # checksums recorded
    assert "wall_clock_s" in manifest and "peak_mem_bytes" in manifest
    assert all(v.startswith("sha256:") for v in manifest["outputs"].values())


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("node_count = 5\n")
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG


def test_node_type_strategy_on_tkg_is_config_error(pipeline):
    tmp_path, graph_dir, splits_dir = pipeline
    assert main(["negatives", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--strategy", "node-type", "--q", "5",
                 "--out-dir", str(tmp_path / "neg")]) == EXIT_CONFIG


def test_unexpected_error_keeps_traceback(tmp_path, monkeypatch, capsys):
    def explode(run):
        raise RuntimeError("boom in synth")

    monkeypatch.setattr(cli, "cmd_synth", explode)
    assert main(["synth", "--config", "unused.cfg",
                 "--out-dir", str(tmp_path / "x")]) == EXIT_UNEXPECTED
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "in explode" in err
    assert "RuntimeError: boom in synth" in err


def test_split_error_exit_code(tmp_path, g4_path):
    graph_dir = tmp_path / "g4"
    assert main(["ingest", "--edgelist", str(g4_path), "--granularity", "year",
                 "--out-dir", str(graph_dir)]) == EXIT_OK
    # G4 is degenerate under the cumulative rule: data error
    assert main(["split", "--graph", str(graph_dir),
                 "--out-dir", str(tmp_path / "s")]) == EXIT_DATA


def test_protocol_error_exit_code(pipeline):
    tmp_path, graph_dir, splits_dir = pipeline
    out = tmp_path / "neg_valid"
    assert main(["negatives", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "valid", "--strategy", "random", "--q", "5",
                 "--seed", "1", "--out-dir", str(out)]) == EXIT_OK
    # evaluating the test split with validation negatives is a protocol error
    assert main(["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "test", "--scorer", "oracle",
                 "--negatives", str(out / "negatives.bin"),
                 "--out-dir", str(tmp_path / "bad_eval")]) == EXIT_PROTOCOL


def test_integrity_error_exit_code(pipeline):
    tmp_path, graph_dir, splits_dir = pipeline
    out = tmp_path / "neg"
    assert main(["negatives", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "test", "--strategy", "random", "--q", "5",
                 "--seed", "1", "--out-dir", str(out)]) == EXIT_OK
    blob = bytearray((out / "negatives.bin").read_bytes())
    blob[-10] ^= 0xFF
    (out / "negatives.bin").write_bytes(bytes(blob))
    assert main(["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "test", "--scorer", "oracle",
                 "--negatives", str(out / "negatives.bin"),
                 "--out-dir", str(tmp_path / "bad_eval")]) == EXIT_INTEGRITY


def test_thg_ingest_to_eval(tmp_path):
    import chronolink as cl

    cfg = cl.SynthConfig(node_count=30, relation_count=2, timestep_count=40,
                         node_type_count=2, rate=6, p_rep=0.4, seed=51)
    g = cl.generate(cfg)
    edges = tmp_path / "edges.csv"
    edges.write_text(
        "time,src,rel,dst\n"
        + "".join(f"{t},n{s},rel{r},n{o}\n" for s, r, o, t in g)
    )
    types = tmp_path / "types.csv"
    types.write_text("".join(f"n{i},type{int(g.node_types[i])}\n" for i in range(30)))
    static = tmp_path / "static.csv"
    static.write_text(
        "src,rel,dst\n" + "".join(f"n0,related_to,n{i}\n" for i in range(1, 6)) + "n0,x,zz\n"
    )

    graph_dir = tmp_path / "graph"
    splits_dir = tmp_path / "splits"
    assert main(["ingest", "--edgelist", str(edges), "--kind", "thg",
                 "--node-types", str(types), "--static", str(static),
                 "--granularity", "second", "--out-dir", str(graph_dir)]) == EXIT_OK
    assert (graph_dir / "node_types.csv").exists()
    assert (graph_dir / "static_edgelist.csv").exists()
    # raw string ids re-densify in first-seen order: same structure, new labels
    loaded, static_graph = cl.load_graph_dir(graph_dir)
    assert loaded.is_heterogeneous
    assert len(loaded) == len(g) and loaded.node_count == g.node_count
    assert sorted(loaded.node_types.tolist()) == sorted(g.node_types.tolist())
    assert static_graph is not None and len(static_graph) == 5

    assert main(["split", "--graph", str(graph_dir), "--out-dir", str(splits_dir)]) == EXIT_OK
    neg_dir = tmp_path / "neg"
    assert main(["negatives", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "test", "--strategy", "node-type", "--q", "6",
                 "--seed", "2", "--out-dir", str(neg_dir)]) == EXIT_OK
    eval_dir = tmp_path / "ev"
    assert main(["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "test", "--scorer", "oracle",
                 "--negatives", str(neg_dir / "negatives.bin"),
                 "--out-dir", str(eval_dir)]) == EXIT_OK
    assert "mrr = 1\n" in (eval_dir / "result.txt").read_text()


def test_eval_without_negatives_uses_one_vs_all(pipeline):
    tmp_path, graph_dir, splits_dir = pipeline
    out = tmp_path / "eval_all"
    assert main(["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "valid", "--scorer", "oracle",
                 "--out-dir", str(out)]) == EXIT_OK
    assert "mrr = 1\n" in (out / "result.txt").read_text()


@pytest.mark.parametrize("scorer,augmentations", [
    ("recurrency", 3),  # the universe, then the engine's test split and history
    ("recurrency-trained", 5),  # and the grid search's validation split and train
])
def test_one_vs_all_eval_augments_the_universe_once(pipeline, monkeypatch, scorer,
                                                     augmentations):
    tmp_path, graph_dir, splits_dir = pipeline
    augmented = []

    def counting(graph):
        augmented.append(len(graph))
        return add_inverse_relations(graph)

    monkeypatch.setattr(cli, "add_inverse_relations", counting)
    monkeypatch.setattr(evaluation, "add_inverse_relations", counting)
    out = tmp_path / "eval"
    grid = ["--params", "lambda_grid=0.1/1.0,alpha_grid=0.9,window_grid=0"]
    assert main(["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "test", "--scorer", scorer, *(grid if scorer != "recurrency" else []),
                 "--out-dir", str(out)]) == EXIT_OK
    graph, _ = load_graph_dir(graph_dir)
    assert augmented.count(len(graph)) == 1
    assert len(augmented) == augmentations
    if scorer == "recurrency":
        train, valid, test, _ = load_splits(splits_dir, graph)
        one_vs_all = NegativeSampleSet("all", 0, 0, [], None)
        want = brute_force_evaluate(RecurrencyScorer(), merge(train, valid), test, one_vs_all,
                                    graph)
        assert (out / "result.txt").read_text() == MANIFEST_REFERENCE + want.to_text()
        assert (out / "per_relation.tsv").read_text().endswith(want.per_relation_table())


@pytest.mark.parametrize("extra", [
    ["--scorer", "recurrency", "--ks", "1,x"],
    ["--scorer", "recurrency", "--params", "window=abc"],
    ["--scorer", "recurrency", "--params", "lambda=nan"],
    ["--scorer", "edgebank-tw", "--params", "window=abc"],
    ["--scorer", "recurrency-trained", "--params", "lambda_grid=0.1/x"],
    ["--scorer", "recurrency-trained", "--params", "window_grid=0/2.5"],
])
def test_malformed_eval_values_are_config_errors(pipeline, capsys, extra):
    tmp_path, graph_dir, splits_dir = pipeline
    assert main(["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "valid", *extra, "--out-dir", str(tmp_path / "ev")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("scorer,extra,accepted", [
    ("edgebank-inf", "window=3", "key_mode"),
    ("edgebank-tw", "window=3,lambda=1", "window, key_mode"),
    ("recurrency", "lamda=5", "lambda, alpha, window"),
    ("recurrency-trained", "lambda=0.1", "lambda_grid, alpha_grid, window_grid"),
    ("oracle", "salt=1", "no keys"),
])
def test_unknown_params_keys_are_config_errors(pipeline, capsys, scorer, extra, accepted):
    tmp_path, graph_dir, splits_dir = pipeline
    out = tmp_path / "ev"
    assert main(["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--split", "valid", "--scorer", scorer, "--params", extra,
                 "--out-dir", str(out)]) == EXIT_CONFIG
    unknown = extra.split(",")[-1].split("=")[0]
    assert f"key {unknown!r} is unknown to {scorer}, which accepts {accepted}" in (
        capsys.readouterr().err)
    assert not (out / "result.txt").exists()


def test_memory_budget_is_restored_after_each_command(tmp_path):
    # RLIMIT_AS is process-wide, so the calls run in a process of their own
    (tmp_path / "synth.cfg").write_text(SYNTH_CFG)
    script = textwrap.dedent("""
        import resource, sys
        from chronolink.cli import main
        before = resource.getrlimit(resource.RLIMIT_AS)
        for mib in ("4096", "8192"):
            code = main(["synth", "--config", "synth.cfg", "--out-dir", "graph" + mib,
                         "--mem-budget", mib])
            assert code == 0, code
            assert resource.getrlimit(resource.RLIMIT_AS) == before
        print("restored")
    """)
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines()[-1] == "restored"


def test_negative_memory_budget_is_config_error(tmp_path, capsys):
    (tmp_path / "synth.cfg").write_text(SYNTH_CFG)
    assert main(["synth", "--config", str(tmp_path / "synth.cfg"),
                 "--out-dir", str(tmp_path / "graph"), "--mem-budget", "-1"]) == EXIT_CONFIG
    assert "--mem-budget -1 MiB" in capsys.readouterr().err


@pytest.mark.parametrize("bad_row", ["999,0", "-1,1"])
def test_node_type_ids_outside_graph_are_data_errors(tmp_path, capsys, bad_row):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG + "node_type_count = 2\n")
    graph_dir = tmp_path / "graph"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(graph_dir)]) == EXIT_OK
    types = graph_dir / "node_types.csv"
    types.write_text(types.read_text() + bad_row + "\n")
    assert main(["split", "--graph", str(graph_dir),
                 "--out-dir", str(tmp_path / "splits")]) == EXIT_DATA
    assert f"node id {bad_row.split(',')[0]} outside [0, 35)" in capsys.readouterr().err


def _thg_graph_dir(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text(SYNTH_CFG + "node_type_count = 2\n")
    graph_dir = tmp_path / "graph"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(graph_dir)]) == EXIT_OK
    return graph_dir


def _append(path, line):
    path.write_text(path.read_text() + line + "\n")
    return len(path.read_text().splitlines())  # the appended line's number


def _replace_line(path, prefix, line):
    lines = path.read_text().splitlines()
    at = next(i for i, old in enumerate(lines) if old.startswith(prefix))
    lines[at] = line
    path.write_text("\n".join(lines) + "\n")
    return at + 1


@pytest.mark.parametrize("name,damage", [
    ("edgelist.csv", lambda p: _append(p, "9223372036854775808,0,0,1")),
    ("edgelist.csv", lambda p: _append(p, "0,-9223372036854775809,0,1")),
    ("node_types.csv", lambda p: _append(p, "3,x")),
    ("meta.txt", lambda p: _replace_line(p, "node_count", "node_count = 3x")),
], ids=["edgelist-overflow", "edgelist-underflow", "node-types-non-integer",
        "meta-non-integer-node-count"])
def test_hostile_graph_dirs_are_data_errors_naming_file_and_line(tmp_path, capsys, name, damage):
    graph_dir = _thg_graph_dir(tmp_path)
    line = damage(graph_dir / name)
    assert main(["split", "--graph", str(graph_dir),
                 "--out-dir", str(tmp_path / "splits")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{graph_dir / name} line {line}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("row,message", [
    (None, "node 7 has no type in {path}"),
    ("7,-1", "node type ids must be non-negative"),
], ids=["missing", "negative"])
def test_untyped_and_negatively_typed_nodes_are_told_apart(tmp_path, capsys, row, message):
    graph_dir = _thg_graph_dir(tmp_path)
    types = graph_dir / "node_types.csv"
    lines = [line for line in types.read_text().splitlines() if not line.startswith("7,")]
    types.write_text("\n".join(lines + ([row] if row else [])) + "\n")
    assert main(["split", "--graph", str(graph_dir),
                 "--out-dir", str(tmp_path / "splits")]) == EXIT_DATA
    assert message.format(path=types) in capsys.readouterr().err


def _raw_edges(tmp_path, rows):
    path = tmp_path / "raw.csv"
    path.write_text("timestamp,subject,relation,object\n" + "".join(r + "\n" for r in rows),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("source", ["--node-types", "schema"])
def test_tkg_ingest_with_a_node_type_sidecar_is_config_error(tmp_path, capsys, source):
    raw = _raw_edges(tmp_path, ["0,a,r,b", "1,b,r,c", "2,c,r,a"])
    types = tmp_path / "types.csv"
    types.write_text("a,x\nb,y\nc,x\n")
    if source == "schema":
        schema = tmp_path / "schema.cfg"
        schema.write_text(f"node_type_path = {types}\n")
        extra = ["--schema", str(schema)]
    else:
        extra = ["--node-types", str(types)]
    graph_dir = tmp_path / "graph"
    assert main(["ingest", "--edgelist", str(raw), "--kind", "tkg", *extra,
                 "--out-dir", str(graph_dir)]) == EXIT_CONFIG
    assert f"--kind tkg conflicts with the node-type sidecar {types}" in capsys.readouterr().err
    assert not (graph_dir / "meta.txt").exists()


def test_ingest_of_timestamp_outside_int64_is_data_error_naming_line(tmp_path, capsys):
    raw = _raw_edges(tmp_path, ["0,a,r,b", "99999999999999999999,b,r,a"])
    assert main(["ingest", "--edgelist", str(raw),
                 "--out-dir", str(tmp_path / "graph")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{raw} line 3: timestamp 99999999999999999999 lies outside the int64 range" in err
    assert "Traceback" not in err


def test_damaged_split_boundaries_exit_data_naming_the_file(pipeline, capsys):
    tmp_path, graph_dir, splits_dir = pipeline
    boundaries = splits_dir / "boundaries.txt"
    boundaries.write_text(boundaries.read_text().replace("train_end = ", "train_end = x"))
    assert main(["stats", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--out-dir", str(tmp_path / "stats")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{boundaries} line 1: train_end 'x" in err
    assert "Traceback" not in err


def test_ingest_of_a_tab_separated_edge_list(tmp_path):
    rows = ["0\ta b\tlikes\tc", "1\tc\tknows\ta b", "2\ta b\tlikes\tc"]
    tsv = tmp_path / "raw.tsv"
    tsv.write_text("timestamp\tsubject\trelation\tobject\n" + "\n".join(rows) + "\n")
    schema = tmp_path / "schema.cfg"
    schema.write_text("delimiter = \\t\n")
    graph_dir = tmp_path / "graph"
    assert main(["ingest", "--edgelist", str(tsv), "--schema", str(schema),
                 "--out-dir", str(graph_dir)]) == EXIT_OK
    graph, _ = load_graph_dir(graph_dir)
    assert list(graph) == [(0, 0, 1, 0), (1, 1, 0, 1), (0, 0, 1, 2)]
    assert read_vocab(graph_dir / "nodes.vocab") == ["a b", "c"]
    assert read_vocab(graph_dir / "relations.vocab") == ["likes", "knows"]


@pytest.mark.parametrize("relation", ["born\tin", "\tborn\tin\t"], ids=["inner", "outer"])
def test_static_relation_holding_a_tab_reloads(tmp_path, relation):
    raw = _raw_edges(tmp_path, [f"{t},a,r,b" for t in range(10)])
    static = tmp_path / "static.csv"
    static.write_text(f"subject,relation,object\na,{relation},b\nb,likes,a\n", encoding="utf-8")
    graph_dir = tmp_path / "graph"
    assert main(["ingest", "--edgelist", str(raw), "--static", str(static),
                 "--out-dir", str(graph_dir)]) == EXIT_OK
    _, companion = load_graph_dir(graph_dir)
    assert companion.relation_count == 2
    assert read_vocab(graph_dir / "static_relations.vocab") == ["born\tin", "likes"]
    assert main(["split", "--graph", str(graph_dir),
                 "--out-dir", str(tmp_path / "splits")]) == EXIT_OK


def test_vocab_with_non_integer_dense_id_is_data_error(tmp_path, capsys):
    graph_dir = tmp_path / "graph"
    raw = _raw_edges(tmp_path, [f"{t},a,r,b" for t in range(10)])
    static = tmp_path / "static.csv"
    static.write_text("subject,relation,object\na,likes,b\n", encoding="utf-8")
    assert main(["ingest", "--edgelist", str(raw), "--static", str(static),
                 "--out-dir", str(graph_dir)]) == EXIT_OK
    vocab = graph_dir / "static_relations.vocab"
    vocab.write_text("likes\tzero\n", encoding="utf-8")
    assert main(["split", "--graph", str(graph_dir),
                 "--out-dir", str(tmp_path / "splits")]) == EXIT_DATA
    assert f"{vocab} line 1: dense id 'zero' is not an integer" in capsys.readouterr().err


# -- one key = value reader --------------------------------------------------------

_KEYVALUE_FILES = {
    "schema": "columns = timestamp,subject,relation,object\nheader = true\ndelimiter = ,\n",
    "manifest": "name = tiny\nurl = \nchecksum = \ngranularity = day\nkind = tkg\n"
                "strategy = all\nq = 0\n",
    "synth": SYNTH_CFG,
}


def _keyvalue_command(tmp_path, graph_dir, splits_dir, kind, value):
    """(argv reading the input ``kind`` set to ``value``, the file or flag named in errors)."""
    out = ["--out-dir", str(tmp_path / "out")]
    common = ["--graph", str(graph_dir), "--splits", str(splits_dir), "--split", "valid"]
    if kind in ("params", "ks"):
        flag = f"--{kind}"
        return ["eval", *common, "--scorer", "recurrency", flag, value, *out], flag
    if kind == "meta":
        path = graph_dir / "meta.txt"
        argv = ["split", "--graph", str(graph_dir), *out]
    elif kind == "boundaries":
        path = splits_dir / "boundaries.txt"
        argv = ["stats", "--graph", str(graph_dir), "--splits", str(splits_dir), *out]
    else:
        path = tmp_path / f"{kind}.cfg"
        flag = {"schema": "--schema", "manifest": "--manifest", "synth": "--config"}[kind]
        raw = _raw_edges(tmp_path, ["0,a,r,b"])
        argv = {"schema": ["ingest", "--edgelist", str(raw)], "manifest": ["fetch"],
                "synth": ["synth"]}[kind] + [flag, str(path), *out]
    path.write_text(value, encoding="utf-8")
    return argv, path


# (input, how the line is applied, the line, exit code, what the message says)
# "set" replaces the key's line, or appends the line; "again" appends it;
# "drop" deletes the key's line
_KEYVALUE_CASES = [
    ("synth", "set", "sed = 7", EXIT_CONFIG,
     "key 'sed' is unknown to a synth config, which accepts node_count, relation_count"),
    ("schema", "set", "delimeter = ;", EXIT_CONFIG,
     "key 'delimeter' is unknown to an edge-list schema"),
    ("manifest", "set", "checksums = x", EXIT_CONFIG, "key 'checksums' is unknown to a dataset"),
    ("meta", "set", "nodes = 3", EXIT_DATA, "key 'nodes' is unknown to meta.txt"),
    ("boundaries", "set", "test_end = 9", EXIT_DATA, "key 'test_end' is unknown to boundaries"),
    ("params", "set", "lamda=5", EXIT_CONFIG, "key 'lamda' is unknown to recurrency"),
    ("synth", "again", "seed = 1", EXIT_CONFIG, "key 'seed' is set again"),
    ("schema", "again", "header = false", EXIT_CONFIG, "key 'header' is set again"),
    ("manifest", "again", "q = 0", EXIT_CONFIG, "key 'q' is set again"),
    ("meta", "again", "kind = tkg", EXIT_DATA, "key 'kind' is set again"),
    ("boundaries", "again", "valid_end = 30", EXIT_DATA, "key 'valid_end' is set again"),
    ("params", "again", "window=1,window=2", EXIT_CONFIG, "key 'window' is set again"),
    ("synth", "drop", "node_count", EXIT_CONFIG, "lacks node_count"),
    ("manifest", "drop", "name", EXIT_CONFIG, "lacks name"),
    ("meta", "drop", "granularity", EXIT_DATA, "lacks granularity"),
    ("boundaries", "drop", "valid_end", EXIT_DATA, "lacks valid_end"),
    ("synth", "set", "seed = 1_000", EXIT_CONFIG, "seed '1_000' is not an int64 integer"),
    ("manifest", "set", "q = 1_000", EXIT_CONFIG, "q '1_000' is not an int64 integer"),
    ("meta", "set", "node_count = 1_000", EXIT_DATA, "node_count '1_000' is not an int64 integer"),
    ("meta", "set", "node_count = -1", EXIT_DATA, "node_count '-1' is not a non-negative integer"),
    ("boundaries", "set", "train_end = 1_0", EXIT_DATA, "train_end '1_0' is not an int64 integer"),
    ("params", "set", "window=1_000", EXIT_CONFIG, "window '1_000' is not an int64 integer"),
    ("synth", "set", "seed = ٣", EXIT_CONFIG, "seed '٣' is not an int64 integer"),
    ("meta", "set", "relation_count = ٣", EXIT_DATA, "relation_count '٣' is not an int64 integer"),
    ("ks", "set", "1,٣", EXIT_CONFIG,
     "'1,٣' is not a list split at ',' of items each an int64 integer"),
    ("synth", "set", "rate = nan", EXIT_CONFIG, "rate 'nan' is not a finite decimal number"),
    ("synth", "set", "p_rep = inf", EXIT_CONFIG, "p_rep 'inf' is not a finite decimal number"),
    ("params", "set", "lambda=nan", EXIT_CONFIG, "lambda 'nan' is not a finite decimal number"),
    ("params", "set", "alpha=-inf", EXIT_CONFIG, "alpha '-inf' is not a finite decimal number"),
    ("schema", "set", "header = yes", EXIT_CONFIG, "header 'yes' is not one of true, false"),
    ("meta", "set", "inverse_augmented = yes", EXIT_DATA,
     "inverse_augmented 'yes' is not one of true, false"),
    ("manifest", "set", "kind = THG", EXIT_CONFIG, "kind 'THG' is not one of tkg, thg"),
    ("schema", "set", "static_path = ", EXIT_CONFIG, "static_path '' is not a non-empty path"),
    ("schema", "set", "node_type_path = ", EXIT_CONFIG,
     "node_type_path '' is not a non-empty path"),
    ("meta", "set", "kind = THG", EXIT_DATA, "kind 'THG' is not one of tkg, thg"),
]


@pytest.mark.parametrize("kind,how,line,code,message", _KEYVALUE_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in _KEYVALUE_CASES])
def test_keyvalue_inputs_refuse_bad_keys_naming_file_line_and_key(pipeline, capsys, kind, how,
                                                                   line, code, message):
    tmp_path, graph_dir, splits_dir = pipeline
    if kind in ("params", "ks"):
        argv, where = _keyvalue_command(tmp_path, graph_dir, splits_dir, kind, line)
        expected = f"{where} {message}"
    else:
        existing = {"meta": graph_dir / "meta.txt", "boundaries": splits_dir / "boundaries.txt"}
        base = existing[kind].read_text() if kind in existing else _KEYVALUE_FILES[kind]
        lines = base.splitlines()
        key = line.split("=")[0].strip()
        at = next((i for i, old in enumerate(lines) if old.split("=")[0].strip() == key), None)
        if how == "drop":
            del lines[at]
        elif how == "set" and at is not None:
            lines[at] = line
        else:
            lines.append(line)
            at = len(lines) - 1
        argv, where = _keyvalue_command(tmp_path, graph_dir, splits_dir, kind,
                                        "\n".join(lines) + "\n")
        expected = f"{where} {message}" if how == "drop" else f"{where} line {at + 1}: {message}"
    assert main(argv) == code
    err = capsys.readouterr().err
    assert expected in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag_of", [
    lambda g, s, missing: ["replay", "--manifest", missing],
    lambda g, s, missing: ["report", "--results", missing],
    lambda g, s, missing: ["synth", "--config", missing],
    lambda g, s, missing: ["eval", "--graph", missing, "--splits", str(s), "--scorer", "oracle"],
    lambda g, s, missing: ["eval", "--graph", str(g), "--splits", str(s), "--scorer", "oracle",
                           "--negatives", missing],
    lambda g, s, missing: ["stats", "--graph", missing],
    lambda g, s, missing: ["stats", "--graph", str(g), "--splits", missing],
    lambda g, s, missing: ["negatives", "--graph", str(g), "--splits", missing,
                           "--strategy", "all"],
    lambda g, s, missing: ["ingest", "--edgelist", missing],
    lambda g, s, missing: ["ingest", "--edgelist", str(g / "edgelist.csv"), "--schema", missing],
    lambda g, s, missing: ["fetch", "--manifest", missing],
], ids=["replay", "report", "synth", "eval-graph", "eval-negatives", "stats-graph",
        "stats-splits", "negatives-splits", "ingest-edgelist", "ingest-schema", "fetch"])
def test_a_flag_naming_a_missing_path_is_config_error(pipeline, capsys, flag_of):
    tmp_path, graph_dir, splits_dir = pipeline
    missing = tmp_path / "nowhere" / "input"
    argv = flag_of(graph_dir, splits_dir, str(missing))
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{missing} does not exist" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,lacking", [
    ("report", "result.txt"),
    ("split", "meta.txt"),
    ("split", "edgelist.csv"),
    ("stats", "boundaries.txt"),
    ("eval", "valid.csv"),
])
def test_a_directory_lacking_a_needed_file_is_data_error(pipeline, capsys, command, lacking):
    tmp_path, graph_dir, splits_dir = pipeline
    directory = tmp_path / "eval" if command == "report" else (
        graph_dir if lacking in ("meta.txt", "edgelist.csv") else splits_dir)
    directory.mkdir(exist_ok=True)
    (directory / lacking).unlink(missing_ok=True)
    argv = {
        "report": ["report", "--results", str(directory)],
        "split": ["split", "--graph", str(graph_dir)],
        "stats": ["stats", "--graph", str(graph_dir), "--splits", str(splits_dir)],
        "eval": ["eval", "--graph", str(graph_dir), "--splits", str(splits_dir),
                 "--scorer", "oracle"],
    }[command]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{directory / lacking}: " in err
    assert "Traceback" not in err


def test_report_of_a_run_directory_without_its_result_is_data_error(pipeline, capsys):
    # a finished run first, then one whose run directory lacks result.txt
    tmp_path, graph_dir, splits_dir = pipeline
    common = ["--graph", str(graph_dir), "--splits", str(splits_dir)]
    done, broken = tmp_path / "done", tmp_path / "broken"
    for run in (done, broken):
        assert main(["eval", *common, "--scorer", "oracle", "--out-dir", str(run)]) == EXIT_OK
    (broken / "result.txt").unlink()
    out = tmp_path / "report"
    assert main(["report", "--results", str(done), str(broken),
                 "--out-dir", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {broken / 'result.txt'}: " in err
    assert "Traceback" not in err
    assert not (out / "summary.tsv").exists()


@pytest.mark.parametrize("flag,data,code", [
    ("--config", b"node_count = 4\xff\n", EXIT_CONFIG),
    ("--schema", b"header = true\xff\n", EXIT_CONFIG),
    ("--edgelist", b"t,s,r,o\n0,a\xff,r,b\n", EXIT_DATA),
], ids=["synth-config", "ingest-schema", "ingest-edgelist"])
def test_an_input_that_is_not_utf8_is_an_error_of_its_class(tmp_path, capsys, flag, data, code):
    path = tmp_path / "input"
    path.write_bytes(data)
    command = {"--config": ["synth"], "--edgelist": ["ingest"],
               "--schema": ["ingest", "--edgelist", str(_raw_edges(tmp_path, ["0,a,r,b"]))]}[flag]
    assert main([*command, flag, str(path), "--out-dir", str(tmp_path / "out")]) == code
    err = capsys.readouterr().err
    assert f"{path}: 'utf-8' codec can't decode byte 0xff" in err
    assert "Traceback" not in err


def _fetch_manifest(tmp_path, lines):
    manifest = tmp_path / "dataset.cfg"
    manifest.write_text("name = tiny\ngranularity = day\nkind = tkg\nstrategy = all\n"
                        + "".join(line + "\n" for line in lines), encoding="utf-8")
    return ["fetch", "--manifest", str(manifest), "--cache-dir", str(tmp_path / "cache"),
            "--out-dir", str(tmp_path / "out")]


def test_a_manifest_without_url_or_checksum_lines_fetches_from_the_cache(tmp_path, capsys):
    assert DatasetManifest.from_file(_fetch_manifest(tmp_path, [])[2]) == DatasetManifest(
        "tiny", "", "", Granularity.DAY, "tkg", "all")
    assert main(_fetch_manifest(tmp_path, [])) == EXIT_FETCH
    assert "dataset tiny is not cached and has no url" in capsys.readouterr().err
    cached = tmp_path / "cache" / "tiny" / "tiny"
    cached.parent.mkdir(parents=True)
    cached.write_bytes(b"0,a,r,b\n")
    assert main(_fetch_manifest(tmp_path, [f"checksum = {checksum_file(cached)}"])) == EXIT_OK
    assert str(cached) in capsys.readouterr().out


def test_thg_graph_dir_lacking_node_types_is_data_error(tmp_path, capsys):
    graph_dir = _thg_graph_dir(tmp_path)
    (graph_dir / "node_types.csv").unlink()
    assert main(["split", "--graph", str(graph_dir),
                 "--out-dir", str(tmp_path / "splits")]) == EXIT_DATA
    assert f"{graph_dir / 'node_types.csv'}: " in capsys.readouterr().err


@pytest.mark.parametrize("text,reason", [
    ("{not json", "JSONDecodeError"),
    ('{"command": "synth", "outputs": {}}', "KeyError('argv')"),
    ("[1, 2]", "TypeError"),
], ids=["not-json", "no-argv", "not-an-object"])
def test_replay_of_a_malformed_manifest_is_config_error(tmp_path, capsys, text, reason):
    manifest = tmp_path / "run_manifest.json"
    manifest.write_text(text)
    assert main(["replay", "--manifest", str(manifest),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"{manifest} is not a run manifest: {reason}" in err
    assert "Traceback" not in err


def test_eval_of_an_inverse_augmented_graph_dir_matches_the_plain_one(pipeline):
    tmp_path, graph_dir, splits_dir = pipeline
    graph, _ = load_graph_dir(graph_dir)
    augmented_dir = tmp_path / "augmented" / graph_dir.name  # the same dataset name
    write_graph_dir(add_inverse_relations(graph), augmented_dir)
    assert load_graph_dir(augmented_dir)[0].inverse_augmented
    outputs = {}
    for name, directory in (("plain", graph_dir), ("augmented", augmented_dir)):
        splits = tmp_path / f"splits-{name}"
        common = ["--graph", str(directory), "--splits", str(splits)]
        assert main(["split", "--graph", str(directory), "--out-dir", str(splits)]) == EXIT_OK
        negatives = tmp_path / f"neg-{name}"
        assert main(["negatives", *common, "--strategy", "type-aware", "--q", "6",
                     "--seed", "4", "--out-dir", str(negatives)]) == EXIT_OK
        for scorer in ("edgebank-inf", "recurrency"):
            for sampled in (False, True):
                out = tmp_path / f"eval-{name}-{scorer}-{sampled}"
                extra = ["--negatives", str(negatives / "negatives.bin")] if sampled else []
                assert main(["eval", *common, "--scorer", scorer, *extra,
                             "--out-dir", str(out)]) == EXIT_OK
                for file in ("result.txt", "per_relation.tsv", "per_timestep.tsv", "params.txt"):
                    outputs.setdefault(name, {})[(scorer, sampled, file)] = (
                        (out / file).read_bytes())
        outputs[name]["negatives"] = (negatives / "negatives.bin").read_bytes()
    assert len(outputs["plain"]) == 17
    assert outputs["augmented"] == outputs["plain"]


# -- negative-set files in eval ---------------------------------------------------------


def _sampled(pipeline, strategy="type-aware", q="6"):
    """The pipeline's graph and splits, with test negatives written to neg/."""
    tmp_path, graph_dir, splits_dir = pipeline
    common = ["--graph", str(graph_dir), "--splits", str(splits_dir)]
    assert main(["negatives", *common, "--strategy", strategy, "--q", q, "--seed", "3",
                 "--out-dir", str(tmp_path / "neg")]) == EXIT_OK
    return tmp_path, common, tmp_path / "neg" / "negatives.bin"


_RESULT_FILES = ("result.txt", "per_relation.tsv", "per_timestep.tsv", "params.txt")


@pytest.mark.parametrize("scorer", ["edgebank-inf", "recurrency", "recurrency-trained"])
def test_streamed_results_equal_those_of_a_full_decode(pipeline, monkeypatch, scorer):
    tmp_path, common, path = _sampled(pipeline)
    assert main(["negatives", *common, "--split", "valid", "--strategy", "random", "--q", "5",
                 "--seed", "3", "--out-dir", str(tmp_path / "neg-valid")]) == EXIT_OK
    argv = ["eval", *common, "--scorer", scorer, "--negatives", str(path),
            "--valid-negatives", str(tmp_path / "neg-valid" / "negatives.bin")]
    assert main([*argv, "--out-dir", str(tmp_path / "streamed")]) == EXIT_OK
    monkeypatch.setattr(cli, "open_negative_set", read_negative_set)
    assert main([*argv, "--out-dir", str(tmp_path / "decoded")]) == EXIT_OK
    for name in _RESULT_FILES:
        assert (tmp_path / "streamed" / name).read_bytes() == (
            tmp_path / "decoded" / name).read_bytes()


@pytest.mark.parametrize("flag", ["--negatives", "--valid-negatives"])
def test_a_directory_as_a_negative_set_is_data_error(pipeline, capsys, monkeypatch, flag):
    tmp_path, common, path = _sampled(pipeline)
    read = []
    checksum = cli.checksum_file
    monkeypatch.setattr(cli, "checksum_file", lambda file: read.append(file) or checksum(file))
    assert main(["eval", *common, "--scorer", "recurrency-trained", flag, str(path.parent),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"data error: {path.parent}: Is a directory" in err
    assert "Traceback" not in err
    # the graph and splits are checksummed, nothing under the refused directory
    assert read and not [file for file in read if path.parent in Path(file).parents]


def test_candidate_ids_outside_the_node_space_exit_data(pipeline, capsys):
    # a set made for a larger graph: record 0's ids moved past the 35 nodes
    tmp_path, common, path = _sampled(pipeline)
    ns = read_negative_set(path)
    ids = np.array(ns.ids, dtype=np.int64)
    ids[: ns.offsets[1]] += 35
    write_negative_set(negatives.NegativeSampleSet.from_columns(
        ns.strategy, ns.q, ns.seed, ns.table, ns.offsets, ids, ns.provenance), path)
    assert main(["eval", *common, "--scorer", "edgebank-inf", "--negatives", str(path),
                 "--out-dir", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"candidate id {int(ids[: ns.offsets[1]].max())} outside the graph's node space " \
           "[0, 35)" in err
    assert not (tmp_path / "out" / "result.txt").exists()


def test_a_corrupt_record_mid_stream_exits_integrity_without_results(pipeline, monkeypatch,
                                                                      capsys):
    # the second-to-last record's direction byte set to 2, with a valid CRC: the
    # file opens, and the replay meets the record after scoring earlier timestamps
    tmp_path, common, path = _sampled(pipeline)
    ns = read_negative_set(path)
    data = bytearray(path.read_bytes()[:-4])
    sizes = [len(negatives._encode_block(ns.table[:, k:k + 1], ns.offsets[k:k + 2],
                                         ns.ids[ns.offsets[k]:ns.offsets[k + 1]]))
             for k in range(len(ns))]
    start = len(data) - sum(sizes[-2:])
    record = np.frombuffer(bytes(data[start:start + sizes[-2]]), dtype=np.uint8)
    data[start + int(negatives._varints(record)[1][3]) + 1] = 2  # the byte after the truth
    path.write_bytes(bytes(data) + struct.pack("<I", zlib.crc32(bytes(data))))
    monkeypatch.setattr(negatives, "_BLOCK_BYTES", 64)
    out = tmp_path / "out"
    assert main(["eval", *common, "--scorer", "recurrency", "--negatives", str(path),
                 "--out-dir", str(out)]) == EXIT_INTEGRITY
    assert "unknown direction code" in capsys.readouterr().err
    assert not any((out / name).exists() for name in _RESULT_FILES)

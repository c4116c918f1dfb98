#!/usr/bin/env python3
"""chronolink benchmark: one workload per process, every metric by name and unit.

Run from the repository root::

    python3 perfbench/run.py --workload desk-sampled --seed 1 --seconds 35 --trace 0

The workload's inputs are generated from ``--seed``; set-up is repeated and
its median reported as ``setup_s``. Timed passes repeat until the next one
would end after ``--seconds``, but at least ``MIN_PASSES`` run. Every
pass-level metric reports the median over the run's passes. The run times
the fixed reference of ``hostspeed.py`` before and after every stage and
set-up, and scales each one's wall to the reference host speed: every
reported time and rate is made of scaled walls. A pass's wall is the sum of
its stage walls. Outputs are then
checked: every stage must exit 0, every pass must write the same bytes, the
pinned digests must match at a workload's default seed, and the engine's
result on the first evaluated timestamp must equal
``synthetic.brute_force_evaluate``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one untraced
pass, then traced passes with wrappers around the package's public
callables, and prints the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Spans and a full result record are written under
``.perfbench_runs/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_runs"
SETUPS = 5
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "prepare_s": "s",
    "eval_edgebank_qps": "queries/s",
    "eval_recurrency_qps": "queries/s",
    "peak_rss_mb": "MiB",
}
CLI_COMMANDS = ("ingest", "split", "stats", "negatives", "eval")
LAYERS = ("synthetic", "datasets", "graph", "stats", "negatives", "evaluation", "baselines", "cli")
PER_LAYER = {
    "baselines.score_s": "s",
    "baselines.score_us_per_candidate": "us",
    "baselines.score_query_us.p50": "us",
    "baselines.score_query_us.tail": "us",
    "baselines.fit_s": "s",
    "baselines.observe_s": "s",
    "baselines.observed_quads": "count",
    "baselines.grid_s": "s",
    "baselines.grid_runs": "count",
    "evaluation.total_s": "s",
    "evaluation.engine_self_s": "s",
    "evaluation.engine_us_per_query": "us",
    "evaluation.filter_s": "s",
    "evaluation.filter_removed": "count",
    "evaluation.queries": "count",
    "evaluation.candidates_scored": "count",
    "evaluation.tied_queries": "count",
    "negatives.all_candidates_s": "s",
    "negatives.all_candidates_calls": "count",
    "graph.inverse_s": "s",
    "graph.objects_at_s": "s",
    "graph.objects_at_calls": "count",
    "graph.indexed_graphs": "count",
    "negatives.generate_s": "s",
    "negatives.generate_us_per_query": "us",
    "negatives.encode_s": "s",
    "negatives.decode_s": "s",
    "negatives.file_bytes": "count",
    "negatives.candidates": "count",
    "datasets.parse_s": "s",
    "datasets.load_s": "s",
    "datasets.save_s": "s",
    "datasets.split_s": "s",
    "datasets.rows": "count",
    "stats.report_s": "s",
    "stats.edges_over_time_s": "s",
    "cli.manifest_s": "s",
    **{f"cli.stage_s.{command}": "s" for command in CLI_COMMANDS},
    "synthetic.generate_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "synthetic"},
    "trace.eval_remainder_s": "s",
    "trace_overhead_ratio": "ratio",
    "negatives_qps": "queries/s",
    "grid_eval_s": "s",
    "failed_ops_ratio": "ratio",
}


@dataclass
class Pass:
    wall_s: float  # summed stage walls, as measured
    scaled_s: float  # summed stage walls at the reference host speed
    stages: list  # workloads.Stage, in run order
    outputs: dict  # output name -> sha256 digest, or exact result text


def _tail(samples):
    """(percentile, value): the highest of a fixed ladder of percentiles with at
    least ten samples above it, or (None, None) below twenty samples."""
    ordered = sorted(samples)
    n = len(ordered)
    best = (None, None)
    for p in (50, 75, 90, 95, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = (p, ordered[max(0, math.ceil(p / 100 * n) - 1)])
    return best


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def _scaled(value, unit, factor):
    """``value`` at the reference host speed: a time divided by the host
    factor, a rate multiplied by it; counts, ratios and sizes unchanged."""
    if unit in ("s", "us"):
        return value / factor
    if unit.endswith("/s"):
        return value * factor
    return value


# -- environment ---------------------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _git_sha():
    head = _read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        return _read(ROOT / ".git" / head[5:])
    return head  # detached head, or None outside a git checkout


def environment(numpy_version):
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chronolink").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines()
                  if ln.startswith("model name")), None)
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(index / "size")
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        "system_settings": "none changed: no kernel, cgroup, mount or CPU-frequency setting",
    }


# -- metrics -------------------------------------------------------------------------


def end_to_end(setups, passes, rss_mib):
    """Per-metric samples of scaled walls; all but ``setup_s`` have one sample
    per pass."""

    def stage_rate(label):
        return [s.records / s.scaled_s for p in passes for s in p.stages
                if s.label == label and s.ok and s.wall_s > 0]

    samples = {
        "setup_s": [wall / host for wall, host in setups],
        "run_s": [p.scaled_s for p in passes],
        "prepare_s": [sum(s.scaled_s for s in p.stages if s.kind == "prepare") for p in passes],
        "eval_edgebank_qps": stage_rate("eval-edgebank"),
        "eval_recurrency_qps": stage_rate("eval-recurrency"),
        "peak_rss_mb": [rss_mib],
    }
    return samples


def _negatives_qps(stages):
    negs = [s for s in stages if s.label.startswith("negatives")]
    return _ratio(sum(s.records for s in negs), sum(s.scaled_s for s in negs))


def _grid_eval_s(stages):
    return sum(s.scaled_s for s in stages if s.label == "eval-grid")


def _is_eval_stage(span_name):
    return span_name == "cli.stage.eval" or span_name.startswith("bench.eval")


def per_layer(phase):
    """Per-layer metrics of one traced pass, as measured."""
    total, self_s, calls, count = phase.total, phase.self_s, phase.calls, phase.count
    score_s = total["baselines.score_query"] + total["baselines.score_recurrency"]
    recurrency = phase.samples["baselines.score_recurrency"]
    queries = count["evaluation.queries"]
    metrics = {
        "baselines.score_s": score_s,
        "baselines.score_us_per_candidate": _ratio(
            score_s, count["evaluation.candidates_scored"], 1e6),
        "baselines.score_query_us.p50": _median(recurrency) * 1e6,
        "baselines.score_query_us.tail": (_tail(recurrency)[1] or 0.0) * 1e6,
        "baselines.fit_s": total["baselines.fit"],
        "baselines.observe_s": total["baselines.observe"],
        "baselines.observed_quads": count["baselines.observed_quads"],
        "baselines.grid_s": total["baselines.grid"],
        "baselines.grid_runs": count["baselines.grid_runs"],
        "evaluation.total_s": total["evaluation.evaluate"],
        "evaluation.engine_self_s": self_s["evaluation.evaluate"],
        "evaluation.engine_us_per_query": _ratio(self_s["evaluation.evaluate"], queries, 1e6),
        "evaluation.filter_s": total["evaluation.filter"],
        "evaluation.filter_removed": count["evaluation.filter_removed"],
        "evaluation.queries": queries,
        "evaluation.candidates_scored": count["evaluation.candidates_scored"],
        "evaluation.tied_queries": count["evaluation.tied_queries"],
        "negatives.all_candidates_s": total["negatives.all_candidates"],
        "negatives.all_candidates_calls": calls["negatives.all_candidates"],
        "graph.inverse_s": total["graph.inverse"],
        "graph.objects_at_s": total["graph.objects_at"],
        "graph.objects_at_calls": calls["graph.objects_at"],
        "graph.indexed_graphs": count["graph.indexed_graphs"],
        "negatives.generate_s": total["negatives.generate"],
        "negatives.generate_us_per_query": _ratio(
            total["negatives.generate"], count["negatives.generated_queries"], 1e6),
        "negatives.encode_s": total["negatives.encode"],
        "negatives.decode_s": total["negatives.decode"],
        "negatives.file_bytes": count["negatives.file_bytes"],
        "negatives.candidates": count["negatives.candidates"],
        "datasets.parse_s": total["datasets.parse"],
        "datasets.load_s": total["datasets.load"],
        "datasets.save_s": total["datasets.save"],
        "datasets.split_s": total["datasets.split"],
        "datasets.rows": count["datasets.rows"],
        "stats.report_s": total["stats.report"],
        "stats.edges_over_time_s": total["stats.edges_over_time"],
        "cli.manifest_s": self_s["cli.checksum"] + self_s["cli.write_manifest"],
    }
    for command in CLI_COMMANDS:
        metrics[f"cli.stage_s.{command}"] = total[f"cli.stage.{command}"]
    for layer in LAYERS[1:]:
        # the stage spans around cli.main are roots; their self time is the
        # remainder no wrapped call covers, reported on its own
        metrics[f"{layer}.self_s"] = sum(
            t for name, t in self_s.items()
            if name.split(".", 1)[0] == layer and not name.startswith("cli.stage.")
        )
    return metrics


# -- the run ---------------------------------------------------------------------------


def _timed_passes(wl, seconds, tracer, label, min_passes=MIN_PASSES):
    passes = []
    started = time.perf_counter()
    while True:
        wl.reset()
        gc.collect()  # garbage of the previous pass is not charged to this one
        if tracer:
            tracer.begin(f"{label}{len(passes)}")
        t = time.perf_counter()
        stages = wl.run_pass()
        elapsed = time.perf_counter() - t  # with the reference samples between stages
        passes.append(Pass(sum(s.wall_s for s in stages), sum(s.scaled_s for s in stages),
                           stages, wl.collect(stages)))
        if len(passes) >= min_passes and time.perf_counter() - started + elapsed > seconds:
            return passes


def _check(wl, passes, pins, size):
    """Failed operations as {(pass index, stage label): reason}."""
    failed = {}
    for i, p in enumerate(passes):
        for s in p.stages:
            if not s.ok:
                failed[(i, s.label)] = s.error
    first = passes[0].outputs
    for i, p in enumerate(passes[1:], start=1):
        for key in sorted(set(first) | set(p.outputs)):
            if first.get(key) != p.outputs.get(key):
                failed.setdefault((i, key.split("/")[0]), f"{key} differs from pass 0")
    pin = pins.get(wl.name)
    if pin and pin["seed"] == wl.seed and size == "full":
        for key, want in pin["outputs"].items():
            if first.get(key) != want:
                failed.setdefault((0, key.split("/")[0]), f"{key} does not match its pin")
    try:
        for label, reason in wl.check(passes[-1].outputs):
            failed.setdefault((len(passes) - 1, label), f"oracle: {reason}")
    except Exception as exc:  # noqa: BLE001 - a broken output must not hide the others
        failed.setdefault((len(passes) - 1, "oracle"), f"{type(exc).__name__}: {exc}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every input for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chronolink" / "__init__.py").is_file():
        print(f"error: no chronolink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy
    from hostspeed import REFERENCE_S, HostSpeed
    from spans import Tracer, installed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    cls = WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    run_id = f"{cls.name}-seed{seed}-{args.size}-trace{args.trace}"
    work = OUT / f"work-{run_id}-{os.getpid()}"
    tracer = Tracer(run_id, cls.name) if args.trace else None
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))

    try:
        wl = cls(seed, args.size, work, tracer)
        host = HostSpeed()
        wl.after_stage = host.after_operation
        setups = []  # (wall, host factor)
        for k in range(SETUPS):
            if tracer:
                tracer.begin(f"setup{k}")
            t = time.perf_counter()
            with installed(tracer) if tracer else contextlib.nullcontext():
                wl.setup()
            wall = time.perf_counter() - t
            setups.append((wall, host.after_operation()))
        if tracer:
            wl.tracer = None
            reference = _timed_passes(wl, 0, None, "reference", 1)
            wl.tracer = tracer
            with installed(tracer):
                passes = _timed_passes(wl, args.seconds, tracer, "pass")
        else:
            passes = _timed_passes(wl, args.seconds, None, "pass")
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # in a traced run the untraced reference pass is pass 0, so the
        # identity check also shows that tracing leaves the outputs unchanged
        checked = reference + passes if tracer else passes
        failed = _check(wl, checked, pins, args.size)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.stages) for p in checked)
    env = environment(numpy.__version__)
    if tracer:
        units = PER_LAYER
        samples = _traced_samples(tracer, setups, passes, reference, failed, attempted)
        spans_path = OUT / "traces" / f"{run_id}.spans.tsv.gz"
        tracer.write(spans_path)
        print(f"spans {spans_path}")
        _print_accounting(tracer)
    else:
        units = {**END_TO_END, "negatives_qps": "queries/s", "grid_eval_s": "s",
                 "failed_ops_ratio": "ratio"}
        samples = end_to_end(setups, passes, rss_mib)
        samples["negatives_qps"] = [_negatives_qps(p.stages) for p in passes]
        samples["grid_eval_s"] = [_grid_eval_s(p.stages) for p in passes]
        samples["failed_ops_ratio"] = [_ratio(len(failed), attempted)]
    report = {name: (_median(samples[name]), unit) for name, unit in units.items()}
    print(f"host: median reference sample {_median(host.samples) * 1e3:.2f} ms over "
          f"{len(host.samples)} samples, nominal {REFERENCE_S * 1e3:.2f} ms; every metric "
          "is made of walls divided by their own host factor")
    _print_report(cls.name, seed, args, env, wl.input, passes, samples, report, failed)

    wanted = PER_LAYER if tracer else END_TO_END
    metrics = {name: {"value": report[name][0], "unit": unit} for name, unit in wanted.items()}
    record = {
        "run_id": run_id, "workload": cls.name, "seed": seed, "size": args.size,
        "seconds": args.seconds, "env": env, "input": wl.input,
        "passes": [{"wall_s": p.wall_s, "stages": [vars(s) for s in p.stages]} for p in passes],
        "setups": [{"wall_s": wall, "host": h} for wall, h in setups],
        "host_reference_s": host.samples, "metrics": metrics,
        "failures": [f"pass {i} {label}: {why}" for (i, label), why in sorted(failed.items())],
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{run_id}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


def _traced_samples(tracer, setups, passes, reference, failed, attempted):
    """Per-layer samples. Span times within a pass are scaled by the pass's
    host factor, its measured over its scaled wall."""
    pass_phases = [ph for ph in tracer.phases if ph.label.startswith("pass")]
    accounting = tracer.stage_accounting(_is_eval_stage)
    per_pass = []
    for ph, p in zip(pass_phases, passes):
        metrics = per_layer(ph)
        metrics["trace.eval_remainder_s"] = sum(
            remainder for label, _, _, _, remainder in accounting if label == ph.label)
        factor = _ratio(p.wall_s, p.scaled_s)
        metrics = {name: _scaled(v, PER_LAYER[name], factor) for name, v in metrics.items()}
        metrics["negatives_qps"] = _negatives_qps(p.stages)
        metrics["grid_eval_s"] = _grid_eval_s(p.stages)
        per_pass.append(metrics)
    samples = {name: [m[name] for m in per_pass] for name in per_pass[0]}
    setup_phases = [ph for ph in tracer.phases if ph.label.startswith("setup")]
    samples["synthetic.generate_s"] = [
        ph.total["synthetic.generate"] / host for ph, (_, host) in zip(setup_phases, setups)
    ]
    samples["trace_overhead_ratio"] = [
        _ratio(_median([p.scaled_s for p in passes]), _median([p.scaled_s for p in reference]))
    ]
    samples["failed_ops_ratio"] = [_ratio(len(failed), attempted)]
    return samples


def _print_report(name, seed, args, env, inputs, passes, samples, report, failed):
    print(f"workload {name}  seed {seed}  size {args.size}  trace {args.trace}  "
          f"passes {len(passes)}")
    print("env " + json.dumps(env, sort_keys=True))
    print("input " + json.dumps(inputs, sort_keys=True))
    for i, p in enumerate(passes):
        walls = "  ".join(f"{s.label}={s.wall_s:.3f}s/{s.host:.3f}" for s in p.stages)
        print(f"pass {i}: {p.wall_s:.3f}s measured, {p.scaled_s:.3f}s scaled  "
              f"stage=wall/host factor: {walls}")
    for metric, (value, unit) in report.items():
        values = samples.get(metric, [value])
        p, tail = _tail(values)
        spread = f"p{p:g}={tail:.6g}" if p is not None else "no tail (fewer than 20 samples)"
        print(f"metric {metric} = {value:.6g} {unit}  n={len(values)} "
              f"median={_median(values):.6g} {spread}")
    for (i, label), why in sorted(failed.items()):
        print(f"FAILED pass {i} {label}: {why}")


def _print_accounting(tracer):
    """Each traced eval stage: its layers' self times plus the remainder no
    wrapped call covers add up to the stage's span."""
    for phase, name, duration, layers, remainder in tracer.stage_accounting(_is_eval_stage):
        attributed = sum(layers.values())
        parts = "  ".join(f"{layer}={t:.4f}" for layer, t in sorted(layers.items()))
        print(f"accounting {phase} {name}: span {duration:.4f}s = layers {attributed:.4f}s "
              f"+ remainder {remainder:.4f}s (residual {duration - attributed - remainder:.2e})  "
              f"{parts}")


if __name__ == "__main__":
    sys.exit(main())

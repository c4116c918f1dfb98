"""Spans and counts recorded from outside the chronolink package.

A traced run replaces public callables of the package's modules with
wrappers that record one span per call (name, start, end, parent span) and
counts taken at the same boundary, then puts the originals back. Nothing
under ``src/`` knows about tracing. Spans are kept in memory and written out
once the run ends.

A span's layer is the part of its name before the first dot. Self time is a
span's duration minus the time its child spans cover; the self times of a
subtree add up to the duration of its root.
"""

from __future__ import annotations

import contextlib
import gzip
import os
import time
from collections import defaultdict

from chronolink import baselines, cli, datasets, evaluation, graph, negatives, synthetic


class Phase:
    """Totals of one setup or one pass: per span name and per counter."""

    def __init__(self, label: str):
        self.label = label
        self.total = defaultdict(float)  # span name -> summed duration
        self.self_s = defaultdict(float)  # span name -> summed self time
        self.calls = defaultdict(int)
        self.count = defaultdict(int)  # counter name -> value
        self.samples = defaultdict(list)  # span name -> per-call durations
        # graph objects queried by objects_at, held until the phase ends so
        # that no id is reused within it
        self.graphs = {}


class Tracer:
    """Single-threaded span recorder; one open-span stack per process."""

    def __init__(self, run_id: str, workload: str):
        self.run_id = run_id
        self.workload = workload
        self.spans = []  # (name, start, end, parent id, phase label)
        self.phases = []
        self.phase = None
        self._stack = []  # [span id, name, parent id, start, child time]

    def begin(self, label: str) -> Phase:
        if self.phase is not None:
            self.phase.graphs.clear()
        self.phase = Phase(label)
        self.phases.append(self.phase)
        return self.phase

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([len(self.spans), name, parent, time.perf_counter(), 0.0])
        self.spans.append(None)

    def close(self) -> float:
        end = time.perf_counter()
        sid, name, parent, start, child = self._stack.pop()
        duration = end - start
        self.spans[sid] = (name, start, end, parent, self.phase.label)
        phase = self.phase
        phase.total[name] += duration
        phase.self_s[name] += duration - child
        phase.calls[name] += 1
        if self._stack:
            self._stack[-1][4] += duration
        return duration

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def wrap(self, name, fn, after=None, sample=False):
        """``fn`` with a span around every call; ``after(phase, args, result)``
        records counts once the span is closed."""

        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.close()
            if sample:
                self.phase.samples[name].append(duration)
            if after is not None:
                after(self.phase, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def stage_accounting(self, is_stage):
        """For every top-level span accepted by ``is_stage``: (phase, name,
        duration, {layer: self time of its descendants}, its own self time)."""
        root_of, covered = [], [0.0] * len(self.spans)
        for sid, (_, start, end, parent, _) in enumerate(self.spans):
            root_of.append(sid if parent < 0 else root_of[parent])
            if parent >= 0:
                covered[parent] += end - start
        layers = defaultdict(lambda: defaultdict(float))
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            root = root_of[sid]
            if sid != root and is_stage(self.spans[root][0]):
                layers[root][name.split(".", 1)[0]] += end - start - covered[sid]
        return [
            (label, name, end - start, dict(layers[sid]), end - start - covered[sid])
            for sid, (name, start, end, parent, label) in enumerate(self.spans)
            if parent < 0 and is_stage(name)
        ]

    def write(self, path) -> None:
        """All spans as gzipped TSV, one line per span, ids in start order."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run_id\tworkload\tphase\tid\tparent\tname\tstart\tend\n")
            for sid, (name, start, end, parent, label) in enumerate(self.spans):
                fh.write(
                    f"{self.run_id}\t{self.workload}\t{label}\t{sid}\t{parent}\t"
                    f"{name}\t{start!r}\t{end!r}\n"
                )


# -- counts taken at span boundaries -------------------------------------------------


def _add(counter, value_of):
    def after(phase, args, result):
        phase.count[counter] += value_of(args, result)

    return after


def _filter_removed(phase, args, result):
    phase.count["evaluation.filter_removed"] += len(args[0]) - len(result)


def _scored(phase, args, result):
    phase.count["evaluation.queries"] += 1
    phase.count["evaluation.candidates_scored"] += len(args[2])


def _encoded(phase, args, result):
    sample_set, path = args[0], args[1]
    phase.count["negatives.file_bytes"] += os.path.getsize(path)
    phase.count["negatives.candidates"] += sum(len(c) for c in sample_set.candidates)


def _split_rows(args, result):
    return sum(len(part) for part in result[:3])


def _patches():
    """(owner, attribute, span name, after hook, keep per-call samples)."""
    generated = _add("negatives.generated_queries", lambda a, r: len(r))
    observed = _add("baselines.observed_quads", lambda a, r: len(a[1]))
    loaded = _add("datasets.rows", lambda a, r: len(r[0]))
    tied = _add("evaluation.tied_queries", lambda a, r: r.tied_queries)
    grid_run = _add("baselines.grid_runs", lambda a, r: 1)
    patches = [
        (synthetic, "generate", "synthetic.generate", None, False),
        # stage functions as ``cli`` imported them
        (cli, "parse_edgelist", "datasets.parse", loaded, False),
        (cli, "load_graph_dir", "datasets.load", loaded, False),
        (cli, "load_splits", "datasets.load", _add("datasets.rows", _split_rows), False),
        (cli, "write_graph_dir", "datasets.save", None, False),
        (cli, "save_splits", "datasets.save", None, False),
        (cli, "chronological_split", "datasets.split", None, False),
        (cli, "checksum_file", "cli.checksum", None, False),
        (cli._Run, "write_manifest", "cli.write_manifest", None, False),
        (cli, "dataset_report", "stats.report", None, False),
        (cli, "edges_over_time", "stats.edges_over_time", None, False),
        (cli, "add_inverse_relations", "graph.inverse", None, False),
        (cli, "merge", "graph.merge", None, False),
        (cli, "expand_queries", "evaluation.expand_queries", None, False),
        (cli, "generate_negative_set", "negatives.generate", generated, False),
        (cli, "generate_all", "negatives.generate", generated, False),
        (cli, "write_negative_set", "negatives.encode", _encoded, False),
        (cli, "read_negative_set", "negatives.decode", None, False),
        (cli, "evaluate_single_step", "evaluation.evaluate", tied, False),
        (cli, "grid_search_recurrency", "baselines.grid", None, False),
        # the same layers as the library-driven workload calls them
        (datasets, "chronological_split", "datasets.split", None, False),
        (graph, "add_inverse_relations", "graph.inverse", None, False),
        (graph, "merge", "graph.merge", None, False),
        (negatives, "generate_all", "negatives.generate", generated, False),
        (evaluation, "evaluate_single_step", "evaluation.evaluate", tied, False),
        # calls made inside the engine and the grid search
        (evaluation, "add_inverse_relations", "graph.inverse", None, False),
        (evaluation, "expand_queries", "evaluation.expand_queries", None, False),
        (evaluation, "time_aware_filter", "evaluation.filter", _filter_removed, False),
        (negatives, "all_candidates", "negatives.all_candidates", None, False),
        (baselines, "evaluate_single_step", "evaluation.evaluate", grid_run, False),
        # scorer methods
        (baselines.EdgeBankScorer, "fit", "baselines.fit", observed, False),
        (baselines.EdgeBankScorer, "observe", "baselines.observe", observed, False),
        (baselines.EdgeBankScorer, "score_query", "baselines.score_query", _scored, False),
        (baselines.RecurrencyScorer, "fit", "baselines.fit", observed, False),
        (baselines.RecurrencyScorer, "observe", "baselines.observe", observed, False),
        (baselines.RecurrencyScorer, "score_query", "baselines.score_recurrency", _scored, True),
    ]
    return patches


def _traced_objects_at(tracer, objects_at):
    def traced(self, subject, relation, timestamp):
        tracer.open("graph.objects_at")
        try:
            return objects_at(self, subject, relation, timestamp)
        finally:
            tracer.close()
            # each graph object builds its lookup index on its first query
            tracer.phase.graphs.setdefault(id(self), self)
            tracer.phase.count["graph.indexed_graphs"] = len(tracer.phase.graphs)

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Patch every traced callable; the originals are restored on exit."""
    saved = []
    try:
        for owner, attr, name, after, sample in _patches():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, after, sample))
        original = graph.TemporalMultiGraph.__dict__["objects_at"]
        saved.append((graph.TemporalMultiGraph, "objects_at", original))
        graph.TemporalMultiGraph.objects_at = _traced_objects_at(tracer, original)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

"""The three benchmark workloads: inputs, one timed pass, and output checks.

``desk-sampled`` and ``thg-grid`` drive ``cli.main`` stage by stage, the way a
user runs the pipeline; ``pedia-1vsall`` calls the library directly, because
the CLI cannot evaluate a subsample of a split. Every workload runs as a
closed loop: one client in one process, each stage starting after the
previous one ended, with the CLI's default ``--threads 1``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chronolink import cli, datasets, evaluation, graph, negatives, synthetic
from chronolink.baselines import EdgeBankScorer, RecurrencyParams, RecurrencyScorer

PREPARE, EVAL = "prepare", "eval"


@dataclass
class Stage:
    """One operation of a pass: a CLI stage or a library call."""

    label: str
    kind: str  # PREPARE or EVAL
    wall_s: float
    ok: bool
    error: str = ""
    records: int = 0  # queries evaluated, or negative records written
    host: float = 1.0  # host factor around the stage, see hostspeed.py

    @property
    def scaled_s(self) -> float:
        """The wall at the reference host speed."""
        return self.wall_s / self.host


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _row(table: str, timestamp) -> str | None:
    """The line of a per-timestep table that starts with ``timestamp``."""
    return next((ln for ln in table.splitlines() if ln.startswith(f"{timestamp}\t")), None)


def _rows(g, mask):
    """The quadruples of ``g`` selected by a boolean mask or an index array."""
    return graph.TemporalMultiGraph(
        g.subjects[mask], g.relations[mask], g.objects[mask], g.timestamps[mask],
        node_count=g.node_count, relation_count=g.relation_count,
        node_types=g.node_types, granularity=g.granularity,
    )


def _oracle(scorer, history, eval_graph, sample_set, full_graph):
    # The time-aware filter only consults facts at the query's own
    # timestamp, so the oracle's universe is the slice at that timestamp:
    # same answer, a fraction of the oracle's set-building cost.
    t = eval_graph.t_min
    return synthetic.brute_force_evaluate(
        scorer, history, eval_graph, sample_set, full_graph.time_slice(t, t),
        kind=evaluation.infer_kind(full_graph),
    )


class Workload:
    name = ""
    default_seed = 0
    configs = {}  # size -> synthetic.SynthConfig without its seed

    def __init__(self, seed: int, size: str, work: Path, tracer=None):
        self.seed = seed
        self.size = size
        self.config = synthetic.SynthConfig(**{**self.configs[size], "seed": seed})
        self.work = work
        self.tracer = tracer
        self.input = {}  # sizes of the generated inputs, for the result record
        # runs right after each stage, outside its wall; returns the host factor
        self.after_stage = lambda: 1.0

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def setup(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Clear what the previous pass left behind; runs outside the pass wall."""

    def run_pass(self) -> list:
        raise NotImplementedError

    def collect(self, stages) -> dict:
        """Outputs of the pass just run, read after its wall clock stopped."""
        raise NotImplementedError

    def check(self, outputs: dict) -> list:
        """(stage label, reason) for every output that fails its oracle check."""
        raise NotImplementedError


# -- CLI-driven workloads ----------------------------------------------------------


class CliWorkload(Workload):
    """Runs ``cli.main`` stages in fixed run-directory names under ``work``.

    ``negatives.bin`` embeds the graph directory's basename, so the names
    must not vary between runs for the pinned digests to hold.
    """

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        g = synthetic.generate(self.config)
        datasets.write_edgelist(g, self.work / "edges.csv")
        if g.is_heterogeneous:
            lines = "".join(f"{node},{int(t)}\n" for node, t in enumerate(g.node_types))
            (self.work / "node_types.csv").write_text("node,type\n" + lines, encoding="utf-8")
        self.input["quads"] = len(g)

    def reset(self):
        shutil.rmtree(self.work / "run", ignore_errors=True)

    def stages(self):
        """(label, kind, argv) of one pass, in order."""
        raise NotImplementedError

    def run_pass(self):
        return [self._stage(label, kind, argv) for label, kind, argv in self.stages()]

    def _stage(self, label, kind, argv) -> Stage:
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with self._span(f"cli.stage.{argv[0]}"):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                    print(f"{type(exc).__name__}: {exc}", file=err)
                    code = 1
        wall = time.perf_counter() - started
        host = self.after_stage()
        if code != 0:
            lines = err.getvalue().strip().splitlines()
            return Stage(label, kind, wall, False, f"exit {code}: {lines[-1] if lines else ''}",
                         host=host)
        # eval prints its result text, negatives the number of records written
        found = re.search(r"^query_count = (\d+)$|^wrote (\d+) negative records",
                          out.getvalue(), re.M)
        return Stage(label, kind, wall, True, records=int(next(filter(None, found.groups())))
                     if found else 0, host=host)

    def _dir(self, label) -> Path:
        return self.work / "run" / {"ingest": "graph", "split": "splits"}.get(label, label)

    def _common(self):
        return ["--graph", str(self._dir("ingest")), "--splits", str(self._dir("split"))]

    def _front(self, ingest_extra=()):
        return [
            ("ingest", PREPARE, ["ingest", "--edgelist", str(self.work / "edges.csv"),
                                 *ingest_extra, "--out-dir", str(self._dir("ingest"))]),
            ("split", PREPARE, ["split", "--graph", str(self._dir("ingest")),
                                "--out-dir", str(self._dir("split"))]),
            ("stats", PREPARE, ["stats", *self._common(), "--out-dir", str(self._dir("stats"))]),
        ]

    def _negatives(self, split, strategy, q):
        label = f"negatives-{split}"
        return (label, PREPARE, ["negatives", *self._common(), "--split", split,
                                 "--strategy", strategy, "--q", str(q), "--seed", str(self.seed),
                                 "--out-dir", str(self._dir(label))])

    def _eval(self, label, scorer, *extra):
        return (label, EVAL, ["eval", *self._common(), "--scorer", scorer,
                              "--negatives", str(self._dir("negatives-test") / "negatives.bin"),
                              *extra, "--out-dir", str(self._dir(label))])

    def collect(self, stages):
        outputs = {}
        for stage in stages:
            out_dir = self._dir(stage.label)
            if out_dir.is_dir():
                for path in sorted(out_dir.iterdir()):
                    if path.name != cli.MANIFEST_NAME:
                        outputs[f"{stage.label}/{path.name}"] = _sha256(path)
        return outputs

    def _eval_scorers(self):
        """eval stage label -> a fresh scorer configured like that stage."""
        raise NotImplementedError

    def check(self, outputs):
        g, _ = datasets.load_graph_dir(self._dir("ingest"))
        train, valid, test, _ = datasets.load_splits(self._dir("split"), g)
        t0 = test.t_min
        first = test.time_slice(t0, t0)
        sample_set = negatives.read_negative_set(self._dir("negatives-test") / "negatives.bin")
        self.input["test_queries"] = len(sample_set)
        self.input["test_candidates"] = sum(len(c) for c in sample_set.candidates)
        history = graph.merge(train, valid)
        failures = []
        for label, scorer in self._eval_scorers().items():
            expected = _oracle(scorer, history, first, sample_set, g)
            want = _row(expected.per_timestep_table(), t0)
            got = _row((self._dir(label) / "per_timestep.tsv").read_text(encoding="utf-8"), t0)
            if got != want:
                failures.append((label, f"timestamp {t0}: engine {got!r}, oracle {want!r}"))
        return failures


class DeskSampled(CliWorkload):
    name = "desk-sampled"
    default_seed = 1
    configs = {
        "full": dict(node_count=3000, relation_count=40, timestep_count=200, rate=150, p_rep=0.5),
        "toy": dict(node_count=300, relation_count=8, timestep_count=40, rate=30, p_rep=0.5),
    }

    def stages(self):
        return [
            *self._front(),
            self._negatives("test", "type-aware", 100),
            self._eval("eval-edgebank", "edgebank-inf"),
            self._eval("eval-recurrency", "recurrency"),
        ]

    def _eval_scorers(self):
        return {"eval-edgebank": EdgeBankScorer(), "eval-recurrency": RecurrencyScorer()}


class ThgGrid(CliWorkload):
    name = "thg-grid"
    default_seed = 5
    configs = {
        "full": dict(node_count=1000, relation_count=20, timestep_count=300,
                     node_type_count=4, rate=20, p_rep=0.5),
        "toy": dict(node_count=200, relation_count=6, timestep_count=60,
                    node_type_count=3, rate=8, p_rep=0.5),
    }

    def stages(self):
        return [
            *self._front(["--kind", "thg", "--node-types", str(self.work / "node_types.csv")]),
            self._negatives("valid", "node-type", 50),
            self._negatives("test", "node-type", 50),
            self._eval("eval-grid", "recurrency-trained", "--valid-negatives",
                       str(self._dir("negatives-valid") / "negatives.bin")),
            self._eval("eval-edgebank", "edgebank-inf"),
            self._eval("eval-recurrency", "recurrency"),
        ]

    def _eval_scorers(self):
        chosen = datasets.read_keyvalue_file(self._dir("eval-grid") / "params.txt")
        params = RecurrencyParams(
            float(chosen["lambda"]), float(chosen["alpha"]), int(chosen["window"])
        )
        return {
            "eval-grid": RecurrencyScorer(params),
            "eval-edgebank": EdgeBankScorer(),
            "eval-recurrency": RecurrencyScorer(),
        }


# -- library-driven workload -------------------------------------------------------


class Pedia1vsAll(Workload):
    """1-vs-all on the first test timestamp of a smallpedia-shaped graph.

    The graph has smallpedia's nodes, relations and rate per timestamp, but
    25 timestamps instead of 125. At 125, scorer fit and the universe
    re-index alone cost 5-7 s per eval stage, so a pass takes about 15 s and
    a run could not hold several passes. Each scorer ranks a seeded sample of
    the first test timestamp's quadruples against every node. The recurrency
    baseline costs about 50x more per query than EdgeBank, so its sample is
    smaller.
    """

    name = "pedia-1vsall"
    default_seed = 3
    configs = {
        "full": dict(node_count=47433, relation_count=283, timestep_count=25,
                     rate=1300, p_rep=0.7),
        "toy": dict(node_count=2000, relation_count=20, timestep_count=20, rate=150, p_rep=0.7),
    }
    sample_quads = {"full": {"eval-edgebank": 400, "eval-recurrency": 12},
                    "toy": {"eval-edgebank": 40, "eval-recurrency": 5}}
    scorers = {"eval-edgebank": EdgeBankScorer, "eval-recurrency": RecurrencyScorer}

    def setup(self):
        self.graph = synthetic.generate(self.config)
        self.input["quads"] = len(self.graph)

    def run_pass(self):
        stages = []
        self.results = {}
        self.prepared = None
        prepared = self._library(stages, "prepare", PREPARE, self._prepare)
        if prepared is None:
            return stages
        history, samples = prepared
        for label, (quads, negs) in samples.items():
            result = self._library(
                stages, label, EVAL,
                lambda: evaluation.evaluate_single_step(
                    self.scorers[label](), history, quads, negs, self.graph
                ),
            )
            if result is not None:
                self.results[label] = result
                stages[-1].records = result.query_count
        self.prepared = prepared
        return stages

    def _library(self, stages, label, kind, call):
        started = time.perf_counter()
        error = ""
        with self._span(f"bench.{label}"):
            try:
                value = call()
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                value, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        stages.append(Stage(label, kind, wall, not error, error, host=self.after_stage()))
        return value

    def _prepare(self):
        g = self.graph
        train, valid, test, _ = datasets.chronological_split(g)
        history = graph.merge(train, valid)
        t0 = test.t_min
        first = test.time_slice(t0, t0)
        rng = np.random.default_rng(self.seed)
        universe = graph.add_inverse_relations(g)
        samples = {}
        for label, n in self.sample_quads[self.size].items():
            quads = _rows(first, np.sort(rng.choice(len(first), n, replace=False)))
            negs = negatives.generate_all(
                universe, evaluation.expand_queries(quads, "tkg"), materialize=False)
            samples[label] = (quads, negs)
        self.input["first_test_quads"] = len(first)
        return history, samples

    def collect(self, stages):
        return {label: result.to_text() for label, result in self.results.items()}

    def check(self, outputs):
        if self.prepared is None:
            return []  # the failed prepare stage is already counted
        history, samples = self.prepared
        self.input.update(
            {f"{label}_quads": len(quads) for label, (quads, _) in samples.items()},
            candidates_per_query=self.graph.node_count,
        )
        # The oracle re-ranks every recurrency query, and the EdgeBank queries
        # of three relations, at ~20 ms per 1-vs-all query. Queries of one
        # relation depend on no other query, so the engine's per-relation
        # entries for the re-ranked relations must match exactly.
        failures = []
        for label, (quads, negs) in samples.items():
            if label not in self.results:
                continue
            relations = np.unique(quads.relations)
            if label == "eval-edgebank":
                relations = relations[:3]
            subset = _rows(quads, np.isin(quads.relations, relations))
            expected = _oracle(self.scorers[label](), history, subset, negs, self.graph)
            got = self.results[label].per_relation
            for rel, want in expected.per_relation.items():
                if got.get(rel) != want:
                    failures.append((label, f"relation {rel}: engine {got.get(rel)}, oracle {want}"))
            if self.results[label].query_count != 2 * len(quads):
                failures.append((label, "query count is not two per quadruple"))
        return failures


WORKLOADS = {w.name: w for w in (DeskSampled, Pedia1vsAll, ThgGrid)}

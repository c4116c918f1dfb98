"""Command-line pipeline: fetch, ingest, split, stats, negatives, eval, synth, report.

Every subcommand writes its outputs plus a ``run_manifest.json`` into the run
directory. The manifest records the resolved configuration, checksums of all
inputs and outputs, the seed, and wall-clock/peak-memory measurements;
``chronolink replay`` re-executes a manifest and verifies the outputs are
bit-identical. Text outputs carry a ``# manifest: run_manifest.json``
reference on their first line.

Exit codes: 0 success, 2 config error, 3 data error, 4 protocol error,
5 integrity error, 6 fetch (retryable) error, 7 memory budget exceeded,
1 unexpected failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from . import __version__
from .baselines import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_LAMBDA_GRID,
    DEFAULT_WINDOW_GRID,
    EdgeBankScorer,
    RecurrencyParams,
    RecurrencyScorer,
    grid_search_recurrency,
    validation_window,
)
from .datasets import (
    KINDS,
    DatasetManifest,
    EdgeListSchema,
    chronological_split,
    checksum_file,
    converted,
    fetch_dataset,
    finite,
    integer,
    keyvalue_fields,
    listed,
    load_graph_dir,
    load_splits,
    parse_edgelist,
    parse_static_edgelist,
    read_keyvalue_file,
    save_splits,
    write_graph_dir,
)
from .errors import (
    ConfigError,
    DataError,
    FetchError,
    IntegrityError,
    ProtocolError,
)
from .evaluation import (
    ConstantScorer,
    OracleScorer,
    evaluate_single_step,
    expand_queries,
    infer_kind,
)
from .graph import Granularity, add_inverse_relations, merge
from .negatives import (
    STRATEGIES,
    Provenance,
    generate_all,
    generate_negative_set,
    open_negative_set,
    read_negative_set,  # noqa: F401  (perfbench's tracer patches cli.read_negative_set)
    write_negative_set,
)
from .stats import dataset_report, edges_over_time
from .synthetic import SynthConfig, generate

CACHE_ENV = "CHRONOLINK_CACHE"
MANIFEST_NAME = "run_manifest.json"
MANIFEST_REFERENCE = f"# manifest: {MANIFEST_NAME}\n"

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PROTOCOL = 4
EXIT_INTEGRITY = 5
EXIT_FETCH = 6
EXIT_MEMORY = 7


def _default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV, Path.home() / ".cache" / "chronolink"))


def _write_output(out_dir: Path, name: str, text: str) -> Path:
    path = out_dir / name
    path.write_text(MANIFEST_REFERENCE + text, encoding="utf-8")
    return path


class _Run:
    """Collects inputs/outputs of one subcommand for the run manifest."""

    def __init__(self, args):
        self.args = args
        self.out_dir = Path(args.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.inputs = {}
        self.outputs = []
        self.config = {}
        self.seed = getattr(args, "seed", None)

    def add_input(self, path, file: bool = False) -> None:
        """Checksum a file, or every file under a directory unless ``file``."""
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"{path} does not exist")
        if file and path.is_dir():
            raise DataError(f"{path}: {os.strerror(errno.EISDIR)}")
        if path.is_dir():
            for child in sorted(path.rglob("*")):
                if child.is_file():
                    self.inputs[str(child)] = checksum_file(child)
        else:
            self.inputs[str(path)] = checksum_file(path)

    def add_output(self, path) -> None:
        self.outputs.append(Path(path))

    def write_manifest(self, command: str, argv, wall_clock: float) -> None:
        outputs = {}
        for path in self.outputs:
            if path.is_dir():
                for child in sorted(path.rglob("*")):
                    if child.is_file() and child.name != MANIFEST_NAME:
                        outputs[str(child.relative_to(self.out_dir))] = checksum_file(child)
            elif path.name != MANIFEST_NAME:
                outputs[str(path.relative_to(self.out_dir))] = checksum_file(path)
        manifest = {
            "tool": "chronolink",
            "version": __version__,
            "command": command,
            "argv": list(argv),
            "config": self.config,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": outputs,
            "wall_clock_s": wall_clock,
            "peak_mem_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        }
        (self.out_dir / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )


# -- subcommands -----------------------------------------------------------------


def cmd_fetch(run: _Run):
    args = run.args
    run.add_input(args.manifest)
    manifest = DatasetManifest.from_file(args.manifest)
    cache_dir = Path(args.cache_dir) if args.cache_dir else _default_cache_dir()
    path = fetch_dataset(manifest, cache_dir)
    run.config = {"dataset": manifest.name, "cache_dir": str(cache_dir)}
    run.add_output(_write_output(run.out_dir, "fetched.txt",
                                 f"path = {path}\nchecksum = {manifest.checksum}\n"))
    print(path)


def cmd_ingest(run: _Run):
    args = run.args
    schema = EdgeListSchema()
    if args.schema:
        run.add_input(args.schema)
        schema = EdgeListSchema.from_file(args.schema)
    if args.node_types:
        schema = dataclasses.replace(schema, node_type_path=Path(args.node_types))
    if args.kind == "thg" and schema.node_type_path is None:
        raise ConfigError("THG ingestion needs a node-type sidecar (--node-types)")
    if args.kind == "tkg" and schema.node_type_path is not None:
        raise ConfigError(f"--kind tkg conflicts with the node-type sidecar "
                          f"{schema.node_type_path}; a typed graph is ingested with --kind thg")
    run.add_input(args.edgelist)
    if schema.node_type_path:
        run.add_input(schema.node_type_path)
    graph, report = parse_edgelist(
        args.edgelist,
        schema,
        granularity=Granularity(args.granularity),
        on_invalid=args.on_invalid,
    )
    static = None
    static_vocab = None
    static_path = args.static or schema.static_path
    if static_path:
        run.add_input(static_path)
        node_index = {raw: dense for dense, raw in enumerate(report.node_vocab)}
        static, static_vocab, skipped = parse_static_edgelist(
            static_path, node_index, delimiter=schema.delimiter, header=schema.header
        )
        print(f"static companion: {len(static)} edges, {skipped} rows skipped")
    write_graph_dir(graph, run.out_dir, report, static, static_vocab)
    run.add_output(run.out_dir)
    run.config = {
        "granularity": args.granularity,
        "kind": args.kind,
        "on_invalid": args.on_invalid,
        "rows_read": report.rows_read,
        "duplicates_removed": report.duplicates_removed,
    }
    print(f"ingested {len(graph)} quadruples, {graph.node_count} nodes, "
          f"{graph.relation_count} relations ({report.duplicates_removed} duplicates removed)")


def cmd_split(run: _Run):
    args = run.args
    run.add_input(args.graph)
    graph, _ = load_graph_dir(args.graph)
    train, valid, test, boundaries = chronological_split(graph, args.train_frac, args.valid_frac)
    save_splits(run.out_dir, train, valid, test, boundaries)
    run.add_output(run.out_dir)
    run.config = {"train_frac": args.train_frac, "valid_frac": args.valid_frac}
    print(
        f"split {len(graph)} edges into {len(train)}/{len(valid)}/{len(test)} "
        f"(train_end={boundaries.train_end}, valid_end={boundaries.valid_end})"
    )


def _load_train_test(args, graph):
    if args.splits:
        train, valid, test, boundaries = load_splits(args.splits, graph)
        return train, valid, test, boundaries
    if args.test_start is None:
        raise ConfigError("stats needs --splits or --test-start")
    train = graph.time_slice(graph.t_min, args.test_start - 1)
    test = graph.time_slice(args.test_start, graph.t_max)
    return train, None, test, None


def cmd_stats(run: _Run):
    args = run.args
    run.add_input(args.graph)
    graph, _ = load_graph_dir(args.graph)
    if args.splits:
        run.add_input(args.splits)
    train, _valid, test, _bounds = _load_train_test(args, graph)
    report = dataset_report(graph, train, test, top_k=args.top_k)
    bins = edges_over_time(graph, args.bins)
    run.add_output(_write_output(run.out_dir, "stats.txt", report.to_text()))
    hist_lines = ["relation\tshare"]
    for relation, share in report.relation_histogram:
        hist_lines.append(f"{relation}\t{format(share, '.17g')}")
    hist_lines.append(f"others\t{format(report.others_share, '.17g')}")
    run.add_output(
        _write_output(run.out_dir, "relation_histogram.tsv", "\n".join(hist_lines) + "\n")
    )
    lines = ["bin\tmean\tmin\tmax"]
    for i, (mean, lo, hi) in enumerate(bins):
        lines.append(f"{i}\t{format(mean, '.17g')}\t{lo}\t{hi}")
    run.add_output(_write_output(run.out_dir, "edges_over_time.tsv", "\n".join(lines) + "\n"))
    run.config = {"top_k": args.top_k, "bins": args.bins}
    print(report.to_text(), end="")


def _universe(graph, kind):
    if kind == "tkg" and not graph.inverse_augmented:
        return add_inverse_relations(graph)
    return graph


def cmd_negatives(run: _Run):
    args = run.args
    run.add_input(args.graph)
    run.add_input(args.splits)
    graph, _ = load_graph_dir(args.graph)
    train, valid, test, _bounds = load_splits(args.splits, graph)
    eval_graph = {"valid": valid, "test": test}[args.split]
    kind = infer_kind(graph)
    if args.strategy == "node-type" and kind != "thg":
        raise ConfigError("node-type sampling requires a THG dataset")
    universe, queries = _universe(graph, kind), expand_queries(eval_graph, kind)
    dataset_name = args.dataset or Path(args.graph).name
    provenance = Provenance(dataset=dataset_name, split=args.split)
    sample_set = generate_negative_set(
        args.strategy, universe, queries, q=args.q, seed=args.seed, provenance=provenance
    )
    path = run.out_dir / "negatives.bin"
    write_negative_set(sample_set, path)
    run.add_output(path)
    run.config = {"strategy": args.strategy, "q": args.q, "split": args.split, "kind": kind}
    print(f"wrote {len(sample_set)} negative records to {path}")


# the --params keys each scorer accepts, with their converters
_SCORER_PARAMS = {
    "oracle": {},
    "constant": {},
    "edgebank-inf": {"key_mode": str},
    "edgebank-tw": {"window": integer, "key_mode": str},
    "recurrency": {"lambda": finite, "alpha": finite, "window": integer},
    "recurrency-trained": {"lambda_grid": listed(finite, "/"), "alpha_grid": listed(finite, "/"),
                           "window_grid": listed(integer, "/")},
}


def _parse_params(raw: str | None, scorer: str) -> dict:
    """The converted ``--params`` entries, each ``key=value``, given to ``scorer``."""
    entries = ((None, entry) for entry in (raw or "").split(","))
    return keyvalue_fields(entries, "--params", _SCORER_PARAMS[scorer], scorer)


def _build_scorer(name, params, boundaries, train, valid, negatives, universe_graph, kind):
    if name == "oracle":
        return OracleScorer()
    if name == "constant":
        return ConstantScorer()
    if name == "edgebank-inf":
        return EdgeBankScorer(key_mode=params.get("key_mode", "pair"), window=None)
    if name == "edgebank-tw":
        return EdgeBankScorer(key_mode=params.get("key_mode", "pair"),
                              window=params.get("window", validation_window(boundaries)))
    if name == "recurrency":
        return RecurrencyScorer(RecurrencyParams(
            params.get("lambda", 0.1), params.get("alpha", 0.99), params.get("window", 0)))
    if name == "recurrency-trained":
        grids = (
            params.get("lambda_grid", DEFAULT_LAMBDA_GRID),
            params.get("alpha_grid", DEFAULT_ALPHA_GRID),
            params.get("window_grid", DEFAULT_WINDOW_GRID),
        )
        best = grid_search_recurrency(
            train, valid, negatives, universe_graph, *grids, kind=kind
        )
        print(f"grid search selected lambda={best.lam} alpha={best.alpha} window={best.window}")
        return RecurrencyScorer(best)
    raise ConfigError(f"unknown scorer {name!r}")


def cmd_eval(run: _Run):
    args = run.args
    run.add_input(args.graph)
    run.add_input(args.splits)
    ks = converted("--ks", args.ks, listed(integer, ","))
    params = _parse_params(args.params, args.scorer)
    graph, static = load_graph_dir(args.graph)
    train, valid, test, boundaries = load_splits(args.splits, graph)
    history = train if args.split == "valid" else merge(train, valid)
    kind = infer_kind(graph)
    trained = args.scorer == "recurrency-trained"
    # the filter universe and the queried splits, each augmented once for the
    # query lists, the engine and the grid search
    universe = _universe(graph, kind)
    eval_graph = _universe({"valid": valid, "test": test}[args.split], kind)
    if trained:
        valid = eval_graph if args.split == "valid" else _universe(valid, kind)

    def negatives_of(path, split):
        """The negative-set file at ``path``, checked now and decoded as the
        replay reaches its records, or else the split's 1-vs-all set."""
        if not path:
            return generate_all(universe, expand_queries(split, kind), materialize=False)
        run.add_input(path, file=True)
        return open_negative_set(path)

    negatives = negatives_of(args.negatives, eval_graph)
    # validation negatives for the trained recurrence variant
    grid_negatives = negatives_of(args.valid_negatives, valid) if trained else None

    scorer = _build_scorer(args.scorer, params, boundaries, train, valid, grid_negatives,
                           universe, kind)
    result = evaluate_single_step(
        scorer, history, eval_graph, negatives, universe,
        ks=ks,
        kind=kind,
        static_context=static,
    )
    run.add_output(_write_output(run.out_dir, "result.txt", result.to_text()))
    run.add_output(_write_output(run.out_dir, "per_relation.tsv", result.per_relation_table()))
    run.add_output(_write_output(run.out_dir, "per_timestep.tsv", result.per_timestep_table()))
    manifest_lines = "".join(f"{k} = {v}\n" for k, v in sorted(scorer.params_manifest().items()))
    manifest_lines += f"seed = {args.seed}\n"
    run.add_output(_write_output(run.out_dir, "params.txt", manifest_lines))
    run.config = {
        "scorer": args.scorer,
        "split": args.split,
        "kind": kind,
        "strategy": negatives.strategy,
        "ks": args.ks,
    }
    print(result.to_text(), end="")


def cmd_synth(run: _Run):
    args = run.args
    run.add_input(args.config)
    config = SynthConfig.from_file(args.config)
    graph = generate(config)
    write_graph_dir(graph, run.out_dir)
    config.to_file(run.out_dir / "synth_config.txt")
    run.add_output(run.out_dir)
    run.config = {"seed": config.seed}
    run.seed = config.seed
    print(f"generated {len(graph)} quadruples over {config.timestep_count} timesteps")


def cmd_report(run: _Run):
    args = run.args
    rows = []
    for result_dir in args.results:
        run.add_input(result_dir)
        values = read_keyvalue_file(Path(result_dir) / "result.txt")
        rows.append((Path(result_dir).name, values))
    keys = ["mrr", "hits@1", "hits@3", "hits@10", "query_count"]
    lines = ["run\t" + "\t".join(keys)]
    for name, values in rows:
        lines.append(name + "\t" + "\t".join(values.get(k, "-") for k in keys))
    run.add_output(_write_output(run.out_dir, "summary.tsv", "\n".join(lines) + "\n"))
    print("\n".join(lines))


def cmd_replay(run: _Run):
    args = run.args
    run.add_input(args.manifest)
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
        argv, outputs = list(manifest["argv"]), dict(manifest["outputs"])
        command = manifest["command"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{args.manifest} is not a run manifest: {exc!r}") from None
    if "--out-dir" in argv:
        argv[argv.index("--out-dir") + 1] = str(run.out_dir)
    else:
        argv += ["--out-dir", str(run.out_dir)]
    code = main(argv)
    if code != EXIT_OK:
        raise ProtocolError(f"replayed command failed with exit code {code}")
    mismatched = []
    for rel, expected in outputs.items():
        actual_path = run.out_dir / rel
        if not actual_path.exists() or checksum_file(actual_path) != expected:
            mismatched.append(rel)
    if mismatched:
        raise IntegrityError(f"replay outputs differ from manifest: {', '.join(mismatched)}")
    run.config = {"replayed": command}
    print(f"replay of {command} is bit-exact ({len(outputs)} files)")


# -- parser and entry point --------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronolink",
        description="Link-forecasting benchmark pipeline for temporal multi-relational graphs",
    )
    parser.add_argument("--version", action="version", version=f"chronolink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out-dir", required=True, help="run directory for outputs + manifest")
        p.add_argument("--mem-budget", type=int, default=0, help="address-space budget in MiB for this command")

    p = sub.add_parser("fetch", help="download and verify a dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache-dir", default=None, help=f"defaults to ${CACHE_ENV} or ~/.cache")
    common(p)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("ingest", help="parse an edge list into a graph directory")
    p.add_argument("--edgelist", required=True)
    p.add_argument("--schema", default=None, help="key-value schema file")
    p.add_argument("--granularity", choices=[g.value for g in Granularity], default="day")
    p.add_argument("--kind", choices=KINDS, default="tkg")
    p.add_argument("--node-types", default=None, help="node-type sidecar (THG)")
    p.add_argument("--static", default=None, help="static companion edge list")
    p.add_argument("--on-invalid", choices=["error", "skip"], default="error")
    common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("split", help="chronological train/valid/test split")
    p.add_argument("--graph", required=True)
    p.add_argument("--train-frac", type=float, default=0.70)
    p.add_argument("--valid-frac", type=float, default=0.15)
    common(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("stats", help="dataset characterization metrics")
    p.add_argument("--graph", required=True)
    p.add_argument("--splits", default=None)
    p.add_argument("--test-start", type=int, default=None,
                   help="treat timestamps >= T as the test split (instead of --splits)")
    p.add_argument("--top-k", type=int, default=10)
    p.add_argument("--bins", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("negatives", help="pre-generate negative candidate sets")
    p.add_argument("--graph", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--dataset", default=None, help="dataset name recorded in provenance")
    p.add_argument("--split", choices=["valid", "test"], default="test")
    p.add_argument("--strategy", choices=STRATEGIES, required=True)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_negatives)

    p = sub.add_parser("eval", help="run the single-step evaluation protocol")
    p.add_argument("--graph", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--split", choices=["valid", "test"], default="test")
    p.add_argument("--scorer", required=True, choices=list(_SCORER_PARAMS))
    p.add_argument("--params", default=None, help="comma-separated key=value scorer parameters")
    p.add_argument("--negatives", default=None, help="pre-generated negative set (.bin)")
    p.add_argument("--valid-negatives", default=None,
                   help="validation negatives for recurrency-trained grid search")
    p.add_argument("--ks", default="1,3,10")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="tabulate several evaluation runs")
    p.add_argument("--results", nargs="+", required=True)
    common(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("replay", help="re-run a manifest and verify bit-exact outputs")
    p.add_argument("--manifest", required=True)
    common(p)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    limits = resource.getrlimit(resource.RLIMIT_AS)
    try:
        if args.mem_budget:
            _limit_memory(args.mem_budget, limits[1])
        run = _Run(args)
        args.func(run)
        run.write_manifest(args.command, argv, time.perf_counter() - started)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        return EXIT_INTEGRITY
    except FetchError as exc:
        print(f"fetch error (retryable): {exc}", file=sys.stderr)
        return EXIT_FETCH
    except MemoryError:
        print("memory budget exceeded; aborting", file=sys.stderr)
        return EXIT_MEMORY
    except Exception as exc:
        traceback.print_exc()
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED
    finally:
        if args.mem_budget:  # the budget holds for this command only
            resource.setrlimit(resource.RLIMIT_AS, limits)


def _limit_memory(mib: int, hard: int) -> None:
    """Lower the soft address-space limit to ``mib`` MiB; the hard limit stays."""
    budget = mib * (1 << 20)
    if budget < 0 or hard != resource.RLIM_INFINITY and budget > hard:
        raise ConfigError(f"--mem-budget {mib} MiB is negative or above the hard limit")
    resource.setrlimit(resource.RLIMIT_AS, (budget, hard))


if __name__ == "__main__":
    raise SystemExit(main())

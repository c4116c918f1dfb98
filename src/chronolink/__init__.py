"""chronolink: link-forecasting benchmarks on temporal multi-relational graphs.

The package covers the full pipeline: dataset ingestion and chronological
splitting, dataset statistics, reproducible negative-sample generation,
time-aware filtered ranking evaluation, and deterministic heuristic
baselines, all verifiable at desk scale against naive brute-force oracles.
"""

__version__ = "0.1.0"

from .baselines import (
    EdgeBankMemory,
    EdgeBankScorer,
    HistoryIndex,
    RecurrencyParams,
    RecurrencyScorer,
    grid_search_recurrency,
    recurrency_score,
    validation_window,
)
from .datasets import (
    DatasetManifest,
    EdgeListSchema,
    IngestReport,
    chronological_split,
    fetch_dataset,
    load_dense_edgelist,
    load_graph_dir,
    load_splits,
    parse_edgelist,
    parse_static_edgelist,
    save_splits,
    write_edgelist,
    write_graph_dir,
)
from .errors import (
    ChronolinkError,
    ConfigError,
    CorruptionError,
    DataError,
    FetchError,
    FormatError,
    IntegrityError,
    ParseError,
    ProtocolError,
    SchemaError,
    SplitError,
)
from .evaluation import (
    ConstantScorer,
    EvalResult,
    OracleScorer,
    Scorer,
    average_rank,
    evaluate_single_step,
    expand_queries,
    time_aware_filter,
)
from .graph import (
    Granularity,
    Quadruple,
    SplitBoundaries,
    TemporalMultiGraph,
    add_inverse_relations,
    from_quadruples,
    merge,
)
from .negatives import (
    EvalQuery,
    NegativeSampleSet,
    Provenance,
    all_candidates,
    collect_tail_pools,
    generate_all,
    generate_negative_set,
    read_negative_set,
    write_negative_set,
)
from .stats import (
    StatsReport,
    consecutiveness,
    dataset_report,
    density_per_timestep,
    direct_recurrency_degree,
    edges_over_time,
    inductive_node_proportion,
    recurrency_degree,
    relation_histogram,
)
from .synthetic import SynthConfig, brute_force_evaluate, generate

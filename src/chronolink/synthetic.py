"""Synthetic temporal graphs with controllable recurrence, plus naive oracles.

The generator drives recurrence through two mechanisms: every triple active
at the previous timestep re-fires with probability ``p_rep`` (geometric run
lengths), and newly born triples may be scheduled to burn for a geometric
burst controlled by ``run_length``. Birth sampling always rejects triples
that fired at the previous timestep, so with ``p_rep = 0`` and
``run_length = 0`` consecutive repeats are impossible by construction.

``brute_force_evaluate`` re-implements the whole evaluation protocol with
plain Python loops and set lookups. It shares only the scorer interface and
the result container with the engine — none of the filtering, ranking, or
aggregation code — and is the trust anchor for the engine's numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datasets import finite, integer, optional, read_fields, write_keyvalue_file
from .errors import ConfigError, DataError
from .evaluation import EvalResult
from .graph import Granularity, TemporalMultiGraph

_RETRIES = 30  # birth rejection attempts before giving up on one sample


@dataclass(frozen=True)
class SynthConfig:
    """Knobs of the synthetic generator; deterministic given ``seed``."""

    node_count: int
    relation_count: int
    timestep_count: int
    node_type_count: int = 0  # 0 = TKG (no node types)
    rate: float = 8.0  # expected newly born triples per timestep
    p_rep: float = 0.0  # chance an active triple re-fires next timestep
    run_length: float = 0.0  # burst continuation probability for new triples
    seed: int = 0
    birth_window: int | None = None  # births happen only at t < birth_window

    def __post_init__(self):
        if min(self.node_count, self.relation_count, self.timestep_count) < 1:
            raise ConfigError("counts must be >= 1")
        if self.node_type_count < 0:
            raise ConfigError("node_type_count must be >= 0")
        if self.node_type_count > self.node_count:
            raise ConfigError("need at least one node per node type")
        for name in ("p_rep", "run_length"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if not 0 <= self.rate < math.inf:  # also rejects NaN
            raise ConfigError(f"rate must be finite and >= 0, got {self.rate}")

    @classmethod
    def from_file(cls, path) -> "SynthConfig":
        """Read a config file whose keys are the fields; ``birth_window = none`` is None."""
        return cls(**read_fields(path, _CONFIG_FIELDS, "a synth config",
                                 ("node_count", "relation_count", "timestep_count")))

    def to_file(self, path) -> None:
        write_keyvalue_file(path, vars(self).items())


_CONFIG_FIELDS = {
    "node_count": integer, "relation_count": integer, "timestep_count": integer,
    "node_type_count": integer, "rate": finite, "p_rep": finite, "run_length": finite,
    "seed": integer, "birth_window": optional(integer),
}


def relation_type_pair(relation: int, node_type_count: int):
    """Fixed (subject type, object type) pair a relation draws endpoints from."""
    return relation % node_type_count, (relation + 1) % node_type_count


def generate(config: SynthConfig) -> TemporalMultiGraph:
    """Sample a graph from the config; identical seeds give identical graphs."""
    rng = np.random.default_rng(config.seed)
    node_types = None
    nodes_of_type = None
    if config.node_type_count > 0:
        node_types = np.arange(config.node_count, dtype=np.int64) % config.node_type_count
        nodes_of_type = [
            np.flatnonzero(node_types == tau) for tau in range(config.node_type_count)
        ]

    def sample_triple():
        r = int(rng.integers(config.relation_count))
        if nodes_of_type is None:
            s = int(rng.integers(config.node_count))
            o = int(rng.integers(config.node_count))
        else:
            s_type, o_type = relation_type_pair(r, config.node_type_count)
            s = int(rng.choice(nodes_of_type[s_type]))
            o = int(rng.choice(nodes_of_type[o_type]))
        return s, r, o

    subjects, relations, objects, times = [], [], [], []
    previous = set()
    bursts = {}  # triple -> first timestep at which its scheduled run has ended
    for t in range(config.timestep_count):
        firing = set()
        # iteration over sorted triples keeps the rng consumption order stable
        for triple in sorted(previous):
            if rng.random() < config.p_rep:
                firing.add(triple)
        for triple, end in sorted(bursts.items()):
            if t < end:
                firing.add(triple)
            else:
                del bursts[triple]
        if config.birth_window is None or t < config.birth_window:
            for _ in range(int(rng.poisson(config.rate))):
                for _attempt in range(_RETRIES):
                    triple = sample_triple()
                    if triple not in previous and triple not in firing:
                        break
                else:
                    continue  # saturated neighborhood; skip this birth
                firing.add(triple)
                if config.run_length > 0.0:
                    length = int(rng.geometric(1.0 - config.run_length))
                    if length > 1:
                        bursts[triple] = t + length
        for s, r, o in firing:
            subjects.append(s)
            relations.append(r)
            objects.append(o)
            times.append(t)
        previous = firing

    return TemporalMultiGraph(
        subjects,
        relations,
        objects,
        times,
        node_count=config.node_count,
        relation_count=config.relation_count,
        node_types=node_types,
        granularity=Granularity.DAY,
    )


# -- naive reference evaluation ------------------------------------------------------


def brute_force_evaluate(
    scorer,
    history: TemporalMultiGraph,
    eval_graph: TemporalMultiGraph,
    negatives,
    full_graph: TemporalMultiGraph,
    ks=(1, 3, 10),
    kind: str | None = None,
    static_context: TemporalMultiGraph | None = None,
) -> EvalResult:
    """O(queries x nodes) reference implementation of the whole protocol.

    Deliberately naive: set-based membership, per-candidate loops, no shared
    filtering/ranking code with the engine.
    """
    if kind is None:
        kind = "thg" if full_graph.is_heterogeneous else "tkg"
    base_relations = full_graph.relation_count
    if kind == "tkg" and full_graph.inverse_augmented:
        base_relations //= 2

    def with_inverses(graph):
        quads = [(s, r, o, t) for s, r, o, t in graph]
        if kind == "tkg" and not graph.inverse_augmented:
            quads += [(o, r + base_relations, s, t) for s, r, o, t in graph]
        return quads

    universe = set(with_inverses(full_graph))
    relation_count = 2 * base_relations if kind == "tkg" else base_relations

    def as_graph(quads):
        if not quads:
            return TemporalMultiGraph(
                [], [], [], [],
                node_count=full_graph.node_count,
                relation_count=relation_count,
                node_types=full_graph.node_types,
                granularity=full_graph.granularity,
                inverse_augmented=kind == "tkg",
            )
        s, r, o, t = zip(*quads)
        return TemporalMultiGraph(
            s, r, o, t,
            node_count=full_graph.node_count,
            relation_count=relation_count,
            node_types=full_graph.node_types,
            granularity=full_graph.granularity,
            inverse_augmented=kind == "tkg",
        )

    # queries, sorted the same canonical way as the engine's expansion
    queries = []
    for s, r, o, t in eval_graph:
        if kind == "thg":
            queries.append((s, r, t, o, "tail"))
        elif eval_graph.inverse_augmented:
            queries.append((s, r, t, o, "tail" if r < base_relations else "head"))
        else:
            queries.append((s, r, t, o, "tail"))
            queries.append((o, r + base_relations, t, s, "head"))
    queries.sort(key=lambda q: (q[2], q[0], q[1], q[3]))

    from .negatives import EvalQuery  # data type only; no engine machinery

    record = None
    if negatives is not None and negatives.candidates is not None:
        record = {q: c for q, c in zip(negatives.queries, negatives.candidates)}

    scorer.fit(as_graph(with_inverses(history)), static_context)

    eval_quads = with_inverses(eval_graph)
    reciprocal = []
    hit_counts = {int(k): 0 for k in ks}
    by_relation = {}
    by_timestep = {}
    tied_queries = 0
    max_tie_group = 0

    pending = list(queries)
    while pending:
        timestamp = pending[0][2]
        batch = [q for q in pending if q[2] == timestamp]
        pending = [q for q in pending if q[2] != timestamp]
        for s, r, t, truth, direction in batch:
            query = EvalQuery(s, r, t, truth, direction)
            if record is not None:
                cands = record[query].tolist()
            elif negatives is not None and negatives.strategy == "all":
                cands = [
                    c
                    for c in range(full_graph.node_count)
                    if c != truth and (s, r, c, t) not in universe
                ]
            else:
                raise DataError("brute-force oracle needs materialized negatives")
            kept = [c for c in cands if c == truth or (s, r, c, t) not in universe]
            scored_ids = kept + [truth]
            scores = list(map(float, scorer.score_query(query, np.array(scored_ids, dtype=np.int64))))
            truth_score = scores[-1]
            others = scores[:-1]
            better = sum(1 for x in others if x > truth_score)
            tied = sum(1 for x in others if x == truth_score)
            rank = 1.0 + better + tied / 2.0
            if tied:
                tied_queries += 1
                max_tie_group = max(max_tie_group, tied + 1)
            rr = 1.0 / rank
            reciprocal.append(rr)
            for k in hit_counts:
                if rank <= k:
                    hit_counts[k] += 1
            by_relation.setdefault(r, []).append(rr)
            by_timestep.setdefault(t, []).append(rr)
        scorer.observe(as_graph([quad for quad in eval_quads if quad[3] == timestamp]))

    n = len(reciprocal)
    return EvalResult(
        mrr=math.fsum(reciprocal) / n if n else 0.0,
        hits={k: hit_counts[k] / n if n else 0.0 for k in hit_counts},
        query_count=n,
        per_relation={r: (math.fsum(v) / len(v), len(v)) for r, v in sorted(by_relation.items())},
        per_timestep=tuple(
            (t, math.fsum(v) / len(v), len(v)) for t, v in sorted(by_timestep.items())
        ),
        tied_queries=tied_queries,
        max_tie_group=max_tie_group,
    )

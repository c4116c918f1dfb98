"""The single-step, time-aware filtered ranking protocol, step by step.

Walks one query through filtering and average-rank scoring by hand, then
runs the full engine and checks it against the naive brute-force oracle.
"""

import numpy as np

import chronolink as cl
from chronolink.synthetic import brute_force_evaluate

# --- the time-aware filter on a hand-made example ---------------------------
# The dataset knows (0, 0, 2, 3): at timestamp 3 node 2 is a true answer for
# (0, 0, ?, .), so it must not be counted as a negative AT THAT TIMESTAMP.
g = cl.from_quadruples([(0, 0, 2, 3), (0, 0, 1, 3), (0, 0, 2, 1)],
                       node_count=5, relation_count=1)
query = cl.EvalQuery(source=0, relation=0, timestamp=3, true_destination=1)
candidates = np.array([0, 2, 3, 4])
kept = cl.time_aware_filter(candidates, query, g)
print("candidates before filter:", candidates.tolist())
print("candidates after filter: ", kept.tolist(), "(2 removed: true fact at t=3)")

# The same fact at a different timestamp does not trigger the filter.
earlier = cl.EvalQuery(source=0, relation=0, timestamp=5, true_destination=1)
print("at t=5 nothing is filtered:", cl.time_aware_filter(candidates, earlier, g).tolist())

# --- average rank under ties -------------------------------------------------
scores = np.array([0.1, 0.9, 0.9, 0.2])  # truth at index 1, tied with index 2
rank = cl.average_rank(scores, 1)
print(f"\ntied truth: rank={rank} reciprocal={1 / rank:.4f}")
full_tie = np.zeros(10)  # 9 negatives, everything tied
print("full tie with 9 negatives: rank =", cl.average_rank(full_tie, 9))

# --- the engine against the naive oracle --------------------------------------
config = cl.SynthConfig(node_count=45, relation_count=3, timestep_count=50,
                        rate=7, p_rep=0.5, seed=13)
graph = cl.generate(config)
train, valid, test, _ = cl.chronological_split(graph)
universe = cl.add_inverse_relations(graph)       # TKG: both query directions
queries = cl.expand_queries(test, "tkg")
negatives = cl.generate_negative_set("type-aware", universe, queries, q=12, seed=5)
history = cl.merge(train, valid)

engine = cl.evaluate_single_step(cl.RecurrencyScorer(), history, test, negatives, graph)
oracle = brute_force_evaluate(cl.RecurrencyScorer(), history, test, negatives, graph)
print(f"\nengine MRR {engine.mrr:.6f} | oracle MRR {oracle.mrr:.6f} | equal: "
      f"{engine.mrr == oracle.mrr and engine.hits == oracle.hits}")
print("hits:", {k: round(v, 4) for k, v in engine.hits.items()})
print("queries with ties:", engine.tied_queries, "of", engine.query_count)

# Per-relation breakdown: the count-weighted mean reproduces the global MRR.
breakdown = engine.per_relation
weighted = sum(mrr * n for mrr, n in breakdown.values()) / engine.query_count
print(f"weighted per-relation mean {weighted:.12f} == global {engine.mrr:.12f}")

"""Reproducible negative-candidate generation under all four strategies.

Every query gets a pre-generated candidate list that excludes the true
destination and every temporal conflict. Draws are keyed on
(seed, query index), so regeneration is byte-for-byte stable and does
not depend on the order in which queries are generated.
"""

import tempfile
from pathlib import Path

import chronolink as cl
from chronolink.negatives import STRATEGIES

config = cl.SynthConfig(node_count=50, relation_count=3, timestep_count=60,
                        node_type_count=2, rate=8, p_rep=0.4, seed=21)
graph = cl.generate(config)
train, valid, test, _ = cl.chronological_split(graph)
queries = cl.expand_queries(test, "thg")
print(graph)
print("test quadruples:", len(test), "-> tail queries:", len(queries))

# One generator for every strategy; "all" keeps every candidate and ignores q.
sets = {strategy: cl.generate_negative_set(strategy, graph, queries, q=10, seed=3)
        for strategy in STRATEGIES}
query = queries[0]
print(f"\nfirst query: source={query.source} relation={query.relation} "
      f"t={query.timestamp} truth={query.true_destination}")
for name, ns in sets.items():
    cands = ns.candidates[0]
    print(f"  {name:<11} {len(cands):3d} candidates, first few: {cands[:6].tolist()}")

# Every q-strategy list is a subset of the 1-vs-all universe for its query.
full = set(sets["all"].candidates[0].tolist())
for name in ("type-aware", "node-type", "random"):
    assert set(sets[name].candidates[0].tolist()) <= full
print("\nsubset law holds for all q-strategies")

# Node-type sampling never crosses types: candidates share the truth's type.
types = graph.node_types
closure = all(
    all(types[c] == types[q.true_destination] for c in cands.tolist())
    for q, cands in zip(queries, sets["node-type"].candidates)
)
print("node-type closure holds:", closure)

# Serialization round-trips exactly, and regeneration is byte-identical.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "negatives.bin"
    cl.write_negative_set(sets["random"], path)
    again = cl.generate_negative_set("random", graph, queries, q=10, seed=3)
    path2 = Path(tmp) / "again.bin"
    cl.write_negative_set(again, path2)
    print("file round trip:", cl.read_negative_set(path) == sets["random"])
    print("regeneration byte-identical:", path.read_bytes() == path2.read_bytes())
    print("file size:", path.stat().st_size, "bytes for", len(queries), "queries")

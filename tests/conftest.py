import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

from chronolink import Scorer, from_quadruples, negatives, write_negative_set

DATA_DIR = Path(__file__).parent / "data"

# canonical desk-scale fixture used across the suite
G4_QUADS = [(0, 0, 1, 0), (0, 0, 1, 1), (2, 1, 3, 1), (0, 0, 1, 3), (2, 1, 3, 3)]


@pytest.fixture
def g4():
    return from_quadruples(G4_QUADS, node_count=4, relation_count=2, granularity="year")


@pytest.fixture
def g4_path():
    return DATA_DIR / "g4.csv"


class HashScorer(Scorer):
    """Stateless pseudo-random scorer; pure in (source, relation, candidate, time).

    Useful for tie-free ranking laws: scores depend on nothing but the query
    and candidate ids, so scorer state cannot confound protocol properties.
    """

    name = "hash"

    def __init__(self, salt: int = 0):
        self.salt = salt

    def score_query(self, query, candidates):
        mixed = (
            candidates * 2654435761
            + query.source * 40503
            + query.relation * 9973
            + query.timestamp * 31
            + self.salt
        ) % 104729
        return mixed.astype(np.float64) / 104729.0


def write_string_id_csv(graph, path) -> None:
    """``graph`` as a raw edge list whose ids are names: node n is ``Qn`` and relation r ``Pr``.

    Rows keep the graph's order under a ``timestamp,subject,relation,object``
    header, so ``parse_edgelist`` gives the nodes and relations new dense ids
    in first-seen order.
    """
    columns = (graph.timestamps, graph.subjects, graph.relations, graph.objects)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,subject,relation,object\n")
        for lo in range(0, len(graph), 1 << 12):
            block = np.column_stack([column[lo:lo + (1 << 12)] for column in columns])
            fh.write("%d,Q%d,P%d,Q%d\n" * len(block) % tuple(block.ravel().tolist()))


def write_records(sample_set, records, path) -> None:
    """A negative-set file holding the set's records ``records`` in that order,
    as a tool that does not sort its records would write it; the writer here
    always writes canonical order."""
    write_negative_set(sample_set, path)
    offsets, ids = sample_set.offsets, sample_set.ids
    blocks = [negatives._encode_block(sample_set.table[:, k:k + 1], offsets[k:k + 2],
                                      ids[offsets[k]:offsets[k + 1]])
              for k in range(len(sample_set))]
    header = bytearray(path.read_bytes()[:-4 - sum(map(len, blocks))])
    struct.pack_into("<Q", header, 28, len(records))  # the header's record count
    body = bytes(header) + b"".join(blocks[k] for k in records)
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def first_out_of_order(sample_set, records) -> int:
    """The first position in ``records`` whose record sorts before the one
    ahead of it, by (timestamp, source, relation, truth, head)."""
    keys = [tuple(sample_set.table[[2, 0, 1, 3, 4], k].tolist()) for k in records]
    return next(i for i in range(1, len(keys)) if keys[i] < keys[i - 1])

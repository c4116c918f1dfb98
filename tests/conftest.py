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

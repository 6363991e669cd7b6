"""Flagship pipeline: documents → tokenized sequences → per-series
correction → 1m/1h/1d continuous aggregates.

read_parquet (pruned columns) → map_batches tokenize → map_batches
series-key → ONE groupby shuffle → fused correct+rollup group kernel →
rolled-up points.  Streaming end to end; nothing materializes the corpus.
"""

from __future__ import annotations

from ..sources.sequences import sequences_from_documents
from ..stages.correction import correct_and_rollup, correct_sequences


def flagship_rollup(sf_dir: str, *, buckets_per_source: int = 64,
                    config: dict | None = None):
    seqs = sequences_from_documents(sf_dir)
    return correct_and_rollup(seqs, buckets_per_source=buckets_per_source,
                              config=config)


def flagship_corrected(sf_dir: str, *, buckets_per_source: int = 64,
                       config: dict | None = None):
    seqs = sequences_from_documents(sf_dir)
    return correct_sequences(seqs, buckets_per_source=buckets_per_source,
                             config=config)

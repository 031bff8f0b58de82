"""Bitmap index: one bit per (candidate value, block) — paper §4.1.

A ``1`` at (candidate i, block b) means block ``b`` contains at least
one tuple with Z = z_i.  The AnyActive policy reads a block iff any
*active* candidate's bit is set.

Two marking procedures mirror the paper's Algorithms 2 and 3:

* :func:`mark_naive` — per-block, candidate-at-a-time probing with
  early exit (Algorithm 2; what SyncMatch effectively does);
* :func:`mark_lookahead` — one vectorized pass over a whole lookahead
  batch (Algorithm 3's cache-line-friendly loop order; numpy slicing
  plays the role of using a full cache line of bits per probe).

Tests assert both produce identical marks.  Queries hold one
block-major array (:func:`bitmap_from_index`); mark_naive probes its ``.T``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, functions as F

from repro.storage.blocks import BLOCK_COL, BlockCountsIndex


def build_bitmap(df: DataFrame, z: str, *, z_values: list, n_blocks: int) -> np.ndarray:
    """Build the index with a Spark distinct over (block, candidate).

    Returns a |V_Z| × n_blocks boolean matrix.  One bit per block per
    attribute value, as in the paper (orders of magnitude cheaper than
    per-tuple bitmaps).
    """
    pdf = df.select(BLOCK_COL, z).distinct().toPandas()
    zi = pd.Categorical(pdf[z], categories=z_values).codes
    if (zi < 0).any():
        raise ValueError("data contains candidate values missing from z_values")
    out = np.zeros((len(z_values), n_blocks), dtype=bool)
    out[zi, pdf[BLOCK_COL].to_numpy(dtype=np.int64)] = True
    return out


def bitmap_from_index(idx: BlockCountsIndex) -> np.ndarray:
    """The same bitmap, block-major (n_blocks × |V_Z|), from a prefetched
    counts index (no extra job); the layout :func:`mark_lookahead` reads."""
    out = np.zeros((idx.n_blocks, len(idx.z_values)), dtype=bool)
    block_of = np.repeat(
        np.arange(idx.n_blocks, dtype=np.int64), np.diff(idx.offsets)
    )
    out[block_of, idx.z_idx] = True
    return out


def mark_naive(bitmap: np.ndarray, active_idx, block_ids) -> np.ndarray:
    """Algorithm 2: per block, probe candidates until one bit hits."""
    marks = np.zeros(len(block_ids), dtype=bool)
    for pos, b in enumerate(block_ids):
        for cand in active_idx:
            if bitmap[cand, b]:
                marks[pos] = True
                break
    return marks


def mark_lookahead(bitmap_t: np.ndarray, active_mask: np.ndarray, block_ids) -> np.ndarray:
    """Algorithm 3: mark a whole lookahead batch in one vectorized pass.

    Takes the block-major bitmap (n_blocks × |V_Z|, ``pq.bitmap_t``):
    the batch's rows are gathered first (contiguous), then the active
    columns — the whole batch's bits are consumed per probe, the numpy
    analog of Algorithm 3's use of a full cache line of bitmap bits.
    """
    return bitmap_t[block_ids][:, active_mask].any(axis=1)

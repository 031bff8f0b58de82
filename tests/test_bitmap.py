"""Bitmap index correctness and Algorithm 2 ≡ Algorithm 3 marking."""
import numpy as np
import pytest

from repro.storage.bitmap import (
    bitmap_from_index,
    build_bitmap,
    mark_lookahead,
    mark_naive,
)
from repro.storage.blocks import build_counts_index


@pytest.fixture(scope="module")
def fl_bitmap(datasets):
    ds = datasets["flights"]
    bm = build_bitmap(
        ds.sdf, "origin", z_values=ds.meta.value_sets["origin"], n_blocks=ds.n_blocks
    )
    return ds, bm


def test_bitmap_shape(fl_bitmap):
    ds, bm = fl_bitmap
    assert bm.shape == (161, ds.n_blocks)
    assert bm.dtype == bool


def test_bitmap_matches_data(fl_bitmap):
    ds, bm = fl_bitmap
    pdf = ds.sdf.toPandas()
    z_idx = {v: i for i, v in enumerate(ds.meta.value_sets["origin"])}
    truth = np.zeros_like(bm)
    for origin, block in zip(pdf["origin"], pdf["_block_id"]):
        truth[z_idx[origin], block] = True
    np.testing.assert_array_equal(bm, truth)


def test_bitmap_from_index_equals_spark_build(fl_bitmap):
    ds, bm = fl_bitmap
    idx = build_counts_index(
        ds.sdf,
        "origin",
        "departure_hour",
        z_values=ds.meta.value_sets["origin"],
        x_values=ds.meta.value_sets["departure_hour"],
        n_blocks=ds.n_blocks,
        tuples_per_block=ds.tuples_per_block,
    )
    np.testing.assert_array_equal(bitmap_from_index(idx), bm.T)


def test_bitmap_unknown_value_raises(datasets):
    ds = datasets["flights"]
    with pytest.raises(ValueError):
        build_bitmap(ds.sdf, "origin", z_values=["XX"], n_blocks=ds.n_blocks)


@pytest.mark.parametrize("seed", range(10))
def test_naive_equals_lookahead(seed):
    """Algorithm 2 (per-block early-exit probing) and Algorithm 3
    (vectorized batch marking) select identical blocks."""
    rng = np.random.default_rng(seed)
    bm = rng.random((40, 200)) < 0.1
    active_mask = rng.random(40) < 0.3
    blocks = rng.choice(200, size=64, replace=False)
    naive = mark_naive(bm, np.flatnonzero(active_mask), blocks)
    fast = mark_lookahead(bm.T, active_mask, blocks)
    np.testing.assert_array_equal(naive, fast)


def test_no_active_marks_nothing():
    bm = np.ones((5, 10), dtype=bool)
    assert not mark_lookahead(bm.T, np.zeros(5, dtype=bool), [0, 1, 2]).any()
    assert not mark_naive(bm, [], [0, 1, 2]).any()


def test_all_active_marks_nonempty_blocks(fl_bitmap):
    ds, bm = fl_bitmap
    marks = mark_lookahead(bm.T, np.ones(bm.shape[0], dtype=bool), np.arange(ds.n_blocks))
    # every block holds ≥1 tuple, hence ≥1 candidate bit
    assert marks.all()

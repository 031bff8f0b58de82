"""Blocked layout + per-block count aggregation, oracle-checked."""
import numpy as np
import pandas as pd
import pytest

from repro.oracle import assert_equivalent
from repro.storage.blocks import (
    BLOCK_COL,
    add_block_ids,
    block_counts,
    build_counts_index,
    with_blocks_spark,
)
from repro import synth_data


# -- pandas block assignment -------------------------------------------------


def test_add_block_ids_positions():
    pdf = pd.DataFrame({"a": range(10)})
    out = add_block_ids(pdf, 3)
    assert list(out[BLOCK_COL]) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]
    assert BLOCK_COL not in pdf.columns  # input untouched


def test_add_block_ids_bad_tpb():
    with pytest.raises(ValueError):
        add_block_ids(pd.DataFrame({"a": [1]}), 0)


# -- spark permutation path --------------------------------------------------


@pytest.fixture(scope="module")
def lineitem(spark):
    return synth_data.lineitem(spark, sf=0.002, seed=3).cache()


def test_with_blocks_spark_sizes(spark, lineitem):
    n = lineitem.count()
    blocked = with_blocks_spark(lineitem, 100, seed=1)
    sizes = blocked.groupBy(BLOCK_COL).count().toPandas().sort_values(BLOCK_COL)
    assert sizes["count"].iloc[:-1].eq(100).all()  # all full except last
    assert sizes["count"].sum() == n
    assert sizes[BLOCK_COL].tolist() == list(range(len(sizes)))


def test_with_blocks_spark_deterministic(spark, lineitem):
    a = with_blocks_spark(lineitem, 50, seed=7).groupBy(BLOCK_COL, "l_returnflag").count()
    b = with_blocks_spark(lineitem, 50, seed=7).groupBy(BLOCK_COL, "l_returnflag").count()
    assert sorted(map(tuple, a.collect())) == sorted(map(tuple, b.collect()))


def test_with_blocks_spark_bad_tpb(lineitem):
    with pytest.raises(ValueError):
        with_blocks_spark(lineitem, 0)


# -- block_counts vs DuckDB --------------------------------------------------


def test_block_counts_oracle(datasets):
    ds = datasets["flights"]
    pdf = ds.sdf.toPandas()
    got = block_counts(ds.sdf, "origin", "day_of_week", per_block=True)
    assert_equivalent(
        got,
        f"SELECT {BLOCK_COL}, origin, day_of_week, COUNT(*) AS cnt "
        f"FROM flights GROUP BY 1, 2, 3",
        flights=pdf,
    )


def test_block_counts_filtered_oracle(datasets):
    ds = datasets["flights"]
    pdf = ds.sdf.toPandas()
    ids = [0, 5, 10, 11]
    got = block_counts(ds.sdf, "origin", "day_of_week", block_ids=ids, per_block=False)
    assert_equivalent(
        got,
        "SELECT origin, day_of_week, COUNT(*) AS cnt FROM flights "
        f"WHERE {BLOCK_COL} IN (0, 5, 10, 11) GROUP BY 1, 2",
        flights=pdf,
    )


# -- counts index ------------------------------------------------------------


@pytest.fixture(scope="module")
def fl_index(datasets):
    ds = datasets["flights"]
    return ds, build_counts_index(
        ds.sdf,
        "origin",
        "day_of_week",
        z_values=ds.meta.value_sets["origin"],
        x_values=ds.meta.value_sets["day_of_week"],
        n_blocks=ds.n_blocks,
        tuples_per_block=ds.tuples_per_block,
    )


def test_index_total_tuples(fl_index):
    ds, idx = fl_index
    assert idx.total_tuples == ds.n_rows


def test_index_exact_counts_match_spark(fl_index):
    ds, idx = fl_index
    pdf = (
        ds.sdf.groupBy("origin", "day_of_week").count().toPandas()
    )
    exact = idx.exact_counts()
    origins = {v: i for i, v in enumerate(idx.z_values)}
    for _, row in pdf.iterrows():
        zi = origins[row["origin"]]
        xi = idx.x_values.index(row["day_of_week"])
        assert exact[zi, xi] == row["count"]
    assert exact.sum() == ds.n_rows


def test_index_slices_partition_everything(fl_index):
    ds, idx = fl_index
    total = 0
    for b in range(idx.n_blocks):
        zi, xi, cnt = idx.slice(b)
        assert cnt.sum() <= ds.tuples_per_block
        total += cnt.sum()
    assert total == ds.n_rows


def test_index_gather_matches_slices(fl_index):
    _, idx = fl_index
    zi, xi, cnt = idx.gather([3, 4, 5])
    parts = [idx.slice(b) for b in (3, 4, 5)]
    np.testing.assert_array_equal(zi, np.concatenate([p[0] for p in parts]))
    np.testing.assert_array_equal(cnt, np.concatenate([p[2] for p in parts]))


def test_index_gather_empty(fl_index):
    _, idx = fl_index
    zi, xi, cnt = idx.gather([])
    assert len(zi) == len(xi) == len(cnt) == 0


def test_index_unknown_value_raises(datasets):
    ds = datasets["flights"]
    with pytest.raises(ValueError):
        build_counts_index(
            ds.sdf,
            "origin",
            "day_of_week",
            z_values=["NOPE"],
            x_values=ds.meta.value_sets["day_of_week"],
            n_blocks=ds.n_blocks,
            tuples_per_block=ds.tuples_per_block,
        )

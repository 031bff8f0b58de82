"""The one SparkSession factory, shared by the test suite and ``jobs/``.

Environment variables:

* ``SPARK_MASTER`` — Spark master (default ``local[*]``);
* ``SPARK_DRIVER_MEM`` — driver heap; derived from the cgroup memory
  limit when unset;
* ``SPARK_SHUFFLE_PARTITIONS`` — ``spark.sql.shuffle.partitions``
  (default 64).

Master and driver memory are read when the JVM launches, not from
SparkConf, so :func:`configure_env` must run before the first session is
built in the process; :func:`get_spark` calls it.
"""
from __future__ import annotations

import os


def _driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback.

    The cgroup read is best-effort: some container runtimes (gVisor, for
    one) do not pass the host limit through their sysfs emulation. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def configure_env() -> None:
    """Put master and driver memory into ``PYSPARK_SUBMIT_ARGS``
    (existing values win)."""
    os.environ.setdefault("SPARK_DRIVER_MEM", _driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        f"--conf spark.driver.host=127.0.0.1 "
        f"--conf spark.ui.enabled=false "
        "pyspark-shell",
    )


def get_spark(app_name: str):
    """Build (or return) the process's SparkSession.

    Per-session configs that *are* honoured post-launch (shuffle
    partitions, Arrow, broadcast threshold) are set here.  Broadcast
    joins are disabled so papers about shuffle/join algorithms actually
    exercise the shuffle path at SF~=0.1; a reproduction that wants a
    broadcast join sets the threshold back for that query.
    """
    configure_env()
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName(app_name)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark

"""Benchmark: what an analyst waits for when matching histograms.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload spark-flights --seed 1 --seconds 25 --trace 0

Load shape: a closed loop with one client.  The client issues one
request (one exact ``run_scan`` or one approximate ``run_variant``),
waits for the answer, checks it, then issues the next.  The workload
seed draws a fixed set of start blocks per query; one pass issues every
(query, variant, start) request of the workload once, and the client
issues passes until the requests' summed latency reaches ``--seconds``
(at least ``MIN_PASSES`` passes).  Replay workloads repeat the same
starts every pass; spark-flights takes the next start each pass.  Spark
runs ``local`` with at most four worker threads (never more than the
CPUs this process may use).  Every dataset is generated
deterministically at SF 0.1 (600k rows) with 64 tuples per block (9,375
blocks); the program receives the start block, never the seed.

The gated latencies take, for each (query, start), the fastest of its
passes, average those over the run's starts and take the geometric mean
over queries (a Scan reads every block, so all Scans of a query share
one start, -1).  The fastest pass drops moments when the shared machine
is slow; the mean over many starts keeps the seed's choice of starts
from moving the figure.  A spark FastMatch run's time is set mostly by
its start (about 0.6 s per batch, 10 to 13 batches), so spark-flights
spends its passes on new starts rather than on repeats.

Workloads (why each was chosen):

* ``spark-flights`` -- FLIGHTS q1, one ``run_scan`` and one spark-mode
  FastMatch per pass.  The only workload where Spark jobs dominate, so
  a faster Scan plan or fewer jobs per FastMatch run shows here alone.
  One pass takes 10 to 14 s; FLIGHTS q2 (about 18 s more per pass) is
  left out so that the whole benchmark fits its time budget.
* ``replay-police`` -- POLICE q1/q2/q3, all four variants in replay
  mode: ScanMatch and FastMatch every pass; SlowMatch and SyncMatch
  (about 0.45 s a run, first start only) in the first pass.  Driver
  only: narrow histograms, SyncMatch runs thousands of statistics
  iterations, so per-call costs of deciding, gathering and statistics
  dominate.  A change to Spark fetching predicts no change.
* ``replay-taxi`` -- TAXI q1/q2 (3,072 candidates), ScanMatch and
  FastMatch every pass and SlowMatch in the first pass, in replay mode.
  A wide candidate set whose runs read every block (the exhaustion
  path): block-index changes show in set-up time and memory,
  early-stopping changes predict no change.  SyncMatch
  is left out because one run takes tens of seconds.  Runnable by hand,
  but not listed in ``BENCHMARK.json``: its set-up (about 20 s of Spark
  per run) does not fit the gated runs' time budget next to the other two.

Correctness is checked on every request and counted into ``failed``:
each Scan's top-k equals the exact top-k; every approximate run meets
guarantees 1 and 2; every spark-mode run reads the same blocks and
tuples as a replay-mode run from the same start.  Set-up adds a DuckDB
check of one workload aggregate and a Scan check per query; after the
timed loop every repeat of a request must give the first one's counters,
and FastMatch replay runs from all of the seed's starts give
``read_frac``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats each
timed request at once with every public ``repro`` function wrapped
(``perfbench/tracer.py``) and prints per-layer metrics and the tracing
overhead (traced minus untraced time of the same requests).  The last
line of standard output is one JSON object; a full
record (environment, per-request results, spans) goes to
``perfbench/results/``.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shlex  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

SF = 0.1
TUPLES_PER_BLOCK = 64  # pinned: the library default (32) differs from tables/*.rows
MAX_SPARK_THREADS = 4
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = "64"  # the value the repo's test and job sessions use
READ_FRAC_STARTS = 16      # FastMatch starts per query that define read_frac
MIN_PASSES = 2


@dataclass(frozen=True)
class Workload:
    dataset: str
    qids: tuple[str, ...]
    variants: tuple[str, ...]  # "scan" or a run_variant name, issued every pass
    mode: str                  # run_variant mode of the approximate requests
    starts: int                # start blocks per query in a pass
    # (variant, n): issued in the first pass only, from the first n starts
    first_pass: tuple[tuple[str, int], ...] = ()
    fresh_starts: bool = False  # each pass takes the next starts instead of repeating

    @property
    def all_variants(self) -> tuple[str, ...]:
        return self.variants + tuple(v for v, _ in self.first_pass)


WORKLOADS = {
    "spark-flights": Workload("flights", ("flights-q1",), ("scan", "fastmatch"), "spark",
                              starts=1, fresh_starts=True),
    "replay-police": Workload("police", ("police-q1", "police-q2", "police-q3"),
                              ("scanmatch", "fastmatch"), "replay", starts=8,
                              first_pass=(("slowmatch", 8), ("syncmatch", 1))),
    "replay-taxi": Workload("taxi", ("taxi-q1", "taxi-q2"),
                            ("scanmatch", "fastmatch"), "replay", starts=4,
                            first_pass=(("slowmatch", 4),)),
}


@dataclass
class Request:
    rid: str
    qid: str
    variant: str
    start_block: int            # -1 for a Scan, which reads every block
    latency: float = float("nan")
    result: object = None       # RunResult or ScanResult
    error: str = ""             # empty when the request succeeded and checked out
    modeled: float | None = None
    spark_jobs: list = field(default_factory=list)

    @property
    def approx(self) -> bool:
        return self.variant != "scan"


class Bench:
    """One benchmark invocation: session, prepared queries, checks."""

    def __init__(self, workload: Workload, seed: int, spark):
        import numpy as np

        from repro.workloads import queries

        self.w = workload
        self.seed = seed
        self.spark = spark
        self.attempted = 0
        self.failures: list[str] = []
        self.cost_models: dict = {}
        self.phases: dict[str, float] = {}
        self.tracer = None

        t0 = time.perf_counter()
        self.ds = queries.load_dataset(spark, workload.dataset, sf=SF,
                                       tuples_per_block=TUPLES_PER_BLOCK)
        t1 = time.perf_counter()
        self.pq = {q: queries.prepare(self.ds, queries.QUERIES[q]) for q in workload.qids}
        for pq in self.pq.values():
            pq.bitmap_t  # built lazily by the program; keep it in set-up
        t2 = time.perf_counter()
        self.phases.update(load_dataset_s=t1 - t0, prepare_s=t2 - t1)
        # The seed's only use: start blocks per query.  A pass uses the
        # first ``workload.starts``; read_frac uses all of them.
        rng = np.random.default_rng(seed)
        n = max(workload.starts, READ_FRAC_STARTS)
        self.starts = {q: [int(b) for b in rng.integers(0, self.ds.n_blocks, n)]
                       for q in workload.qids}

    # -- checks ------------------------------------------------------------

    def _check(self, name: str, fn) -> None:
        """Run one untimed check; count it and record a failure."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception:  # a check that raises is a failed check, not a crash
            problem = traceback.format_exc(limit=3)
        if problem:
            self.failures.append(f"{name}: {problem}")

    def oracle_check(self) -> None:
        from repro import oracle
        from repro.storage import blocks

        spec = self.pq[self.w.qids[0]].spec
        z, x = spec.z, spec.x

        def check():
            oracle.assert_equivalent(
                blocks.block_counts(self.ds.sdf, z, x, per_block=False),
                f'SELECT "{z}", "{x}", count(*) AS cnt FROM t GROUP BY "{z}", "{x}"',
                t=self.ds.sdf.select(z, x),
            )

        self._check(f"duckdb oracle {spec.qid}", check)

    def warm_up(self) -> None:
        """Untimed: one Scan and one spark batch per query, or one replay
        run per (query, variant); counted in set-up time."""
        from repro.engine import runner
        from repro.storage import blocks

        for qid, pq in self.pq.items():
            if self.w.mode == "spark":
                req = Request(f"warmup-{qid}-scan", qid, "scan", -1)
                self.execute(req)
                self.record(req)
                first_batch = range(min(512, self.ds.n_blocks))
                blocks.block_counts(pq.ds.sdf, pq.spec.z, pq.spec.x,
                                    block_ids=first_batch, per_block=False).toPandas()
            else:
                for variant in self.w.all_variants:
                    runner.run_variant(pq, variant, start_block=0, mode="replay")

    def record(self, req: Request) -> None:
        """Check a finished request; count it as attempted and maybe failed."""
        self.attempted += 1
        if not req.error:
            if self.tracer is not None:
                self.tracer.request = f"check:{req.rid}"
            try:
                req.error = self._problem(req)
            except Exception:  # a check that raises fails the request
                req.error = traceback.format_exc(limit=3)
            finally:
                if self.tracer is not None:
                    self.tracer.request = None
        if req.error:
            self.failures.append(f"{req.rid} {req.qid} {req.variant} "
                                 f"start={req.start_block}: {req.error}")

    def _problem(self, req: Request) -> str:
        """What is wrong with a request's answer ("" if nothing)."""
        from repro.engine import costmodel, runner
        from repro.tables import metrics

        pq, res = self.pq[req.qid], req.result
        if not req.approx:
            self.cost_models[req.qid] = costmodel.CostModel.calibrate(res)
            if set(res.topk_idx.tolist()) != set(pq.true_topk().tolist()):
                return "scan top-k differs from the exact top-k"
            return ""
        if req.qid in self.cost_models:
            req.modeled = self.cost_models[req.qid].modeled_seconds(res)
        if not metrics.guarantee1_satisfied(res.topk_idx, pq.tau_star, pq.spec.k, res.eps):
            return "guarantee 1 violated"
        if not metrics.guarantee2_satisfied(res.topk_idx, res.est_counts,
                                            pq.exact_counts, res.eps):
            return "guarantee 2 violated"
        if res.mode == "spark":
            rep = runner.run_variant(pq, req.variant, start_block=req.start_block,
                                     mode="replay")
            got = (res.blocks_read, res.tuples_read)
            want = (rep.blocks_read, rep.tuples_read)
            if got != want:
                return f"spark read (blocks, tuples)={got}, replay read {want}"
        return ""

    # -- requests ----------------------------------------------------------

    def pass_requests(self, p: int) -> list[Request]:
        """Pass ``p``: every (query, variant, start) request of the workload
        once, plus, in the first pass, the ``workload.first_pass`` ones."""
        reqs = []
        first = p * self.w.starts if self.w.fresh_starts else 0
        for qid in self.w.qids:
            pool = self.starts[qid]
            for i in range(self.w.starts):
                extra = [v for v, n in self.w.first_pass if p == 0 and i < n]
                for variant in self.w.variants + tuple(extra):
                    start = -1 if variant == "scan" else pool[(first + i) % len(pool)]
                    reqs.append(Request(f"p{p}-{len(reqs)}", qid, variant, start))
        return reqs

    def execute(self, req: Request) -> None:
        """Issue one request and time it, end to end."""
        from repro.engine import runner

        pq = self.pq[req.qid]
        sc = self.spark.sparkContext
        tracing = self.tracer is not None
        if tracing:
            self.tracer.request = req.rid
            if self.w.mode == "spark":
                sc.setJobGroup(req.rid, req.rid)
        t0 = time.perf_counter()
        try:
            if req.approx:
                req.result = runner.run_variant(pq, req.variant, start_block=req.start_block,
                                                mode=self.w.mode)
            else:
                req.result = runner.run_scan(pq)
        except Exception:  # one failed request must not end the run
            req.error = traceback.format_exc(limit=5)
        finally:
            req.latency = time.perf_counter() - t0
            if tracing:
                self.tracer.request = None
                if self.w.mode == "spark":
                    req.spark_jobs = sorted(sc.statusTracker().getJobIdsForGroup(req.rid))

    def timed_loop(self, seconds: float, tracer=None) -> tuple[list[Request], list[Request]]:
        """Closed loop: repeat whole passes until the requests' summed
        latency reaches ``seconds`` and at least ``MIN_PASSES`` passes are
        done (checks run between requests, outside the timing).  Whole
        passes keep every run's mix the same.

        With a tracer, each request is repeated at once with the tracer
        installed, so the traced and untraced twins see the same machine
        state and their difference is the tracing overhead.
        """
        done, traced, busy, p = [], [], 0.0, 0
        while p < MIN_PASSES or busy < seconds:
            for req in self.pass_requests(p):
                self.execute(req)
                self.record(req)
                done.append(req)
                busy += req.latency
                if tracer is not None:
                    twin = Request("t" + req.rid, req.qid, req.variant, req.start_block)
                    self.tracer = tracer
                    tracer.install()
                    try:
                        self.execute(twin)
                        self.record(twin)
                    finally:
                        tracer.uninstall()
                        self.tracer = None
                    traced.append(twin)
            p += 1
        return done, traced

    def determinism_pass(self, timed: list[Request]) -> dict:
        """Untimed: a run's counters must depend on its inputs alone.

        Every repeat of a (query, variant, start) must give the first run's
        counters; spark-flights repeats no start, but ``_problem`` compares
        each of its runs with a replay run from the same start.  FastMatch
        replay runs from all of each query's starts define ``read_frac``,
        which is therefore a function of the seed alone.
        """
        from repro.engine import runner

        first, mismatches = {}, []
        for r in timed:
            if not r.approx or r.result is None:
                continue
            c = (r.result.tuples_read, r.result.n_batches, r.result.blocks_read,
                 r.result.n_stat_iters)
            want = first.setdefault((r.qid, r.variant, r.start_block), c)
            if c != want:
                mismatches.append(f"{r.rid}: {c} != first pass {want}")
        self._check("determinism", lambda: "; ".join(mismatches))
        fracs = [runner.run_variant(pq, "fastmatch", start_block=start,
                                    mode="replay").tuples_read / self.ds.n_rows
                 for qid, pq in self.pq.items() for start in self.starts[qid]]
        rows = [[*key, *c] for key, c in first.items()]
        digest = hashlib.sha256(json.dumps([rows, fracs]).encode()).hexdigest()[:16]
        return {"read_frac": statistics.fmean(fracs), "read_frac_runs": len(fracs),
                "first_pass": rows, "digest": digest}

    def trace_consistency(self, tracer, requests: list[Request]) -> None:
        """Span counts must equal the program's own RunResult counters."""
        iterate = tracer.calls_by_request("histsim.iterate")
        fetch_name = "blocks.block_counts" if self.w.mode == "spark" else "blocks.gather"
        fetches = tracer.calls_by_request(fetch_name)
        bad = []
        for r in requests:
            if not r.approx or r.result is None:
                continue
            iters = r.result.n_stat_iters
            want_iterate = iters if iters else 1  # an empty run still iterates once
            got = (iterate.get(r.rid, 0), fetches.get(r.rid, 0))
            if got != (want_iterate, iters):
                bad.append(f"{r.rid}: spans (iterate, {fetch_name})={got}, "
                           f"RunResult ({want_iterate}, {iters})")
        self._check("trace counts", lambda: "; ".join(bad))


# -- metrics ---------------------------------------------------------------

def _per_query(requests, variant, stat):
    """``stat`` of each query's latencies, geometric mean over queries.

    With one query this is ``stat`` itself; with several it does not jump
    between the queries' latency clusters as a pooled statistic can.
    """
    per_query = [stat(lat) for lat in _by_query(requests, variant).values()]
    return statistics.geometric_mean(per_query) if per_query else None


def _best_mean(requests, variant):
    """Per query, each start's fastest pass averaged over the starts;
    geometric mean over queries."""
    best: dict[str, dict[int, float]] = {}
    for r in requests:
        if r.variant == variant and r.result is not None:
            q = best.setdefault(r.qid, {})
            q[r.start_block] = min(q.get(r.start_block, r.latency), r.latency)
    per_query = [statistics.fmean(b.values()) for b in best.values()]
    return statistics.geometric_mean(per_query) if per_query else None


def _by_query(requests, variant) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in requests:
        if r.variant == variant and r.result is not None:
            out.setdefault(r.qid, []).append(r.latency)
    return out


def _tail(values):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None, None


# The end-to-end metrics printed in the result line (BENCHMARK.json lists
# them).  Each must apply to every workload; the others are reported only.
# Latencies are gated by each start's fastest pass (see ``_best_mean``), not
# by a median of all requests: this shared machine's speed drifts by 20-40%
# within seconds, which a median over one run's requests still follows.
GATED = ("setup_s", "fastmatch_s", "baseline_s", "read_frac", "peak_rss_mb")


def end_to_end(bench: Bench, timed, setup_s: float, det: dict) -> dict:
    """Every end-to-end metric: name -> (value or None, unit, note).

    ``baseline_*`` is the workload's no-skipping comparison: Scan on
    spark-flights, ScanMatch on the replay workloads.  ``*_p50_s`` are
    per-query medians of all requests (see ``_per_query``); ``fastmatch_s``
    and ``baseline_s`` are fastest passes (see ``_best_mean``).
    """
    approx = [r for r in timed if r.approx and r.result is not None]
    busy = sum(r.latency for r in timed if r.result is not None)
    n = {v: sum(map(len, _by_query(timed, v).values()))
         for v in ("scan", "slowmatch", "scanmatch", "syncmatch", "fastmatch")}
    fm = [lat for lats in _by_query(timed, "fastmatch").values() for lat in lats]
    tail_p, tail = _tail(fm)
    baseline = "scan" if "scan" in bench.w.all_variants else "scanmatch"
    passes = len({r.rid.split("-")[0] for r in timed})
    out = {"setup_s": (setup_s, "s", "process start to first timed request")}
    for v in ("scan", "fastmatch", "slowmatch", "scanmatch", "syncmatch"):
        out[f"{v}_p50_s"] = (_per_query(timed, v, statistics.median), "s", f"n={n[v]}")
    out["fastmatch_tail_s"] = (tail, "s", f"p{tail_p} of all queries, n={len(fm)}" if tail_p
                               else f"needs 20 samples, n={len(fm)}")
    out["baseline_p50_s"] = (_per_query(timed, baseline, statistics.median), "s",
                             f"{baseline}, n={n[baseline]}")
    out["fastmatch_s"] = (_best_mean(timed, "fastmatch"), "s",
                          f"{passes} passes, n={n['fastmatch']}")
    out["baseline_s"] = (_best_mean(timed, baseline), "s",
                         f"{baseline}, fastest of {passes} passes, n={n[baseline]}")
    out["runs_per_s"] = (len(approx) / busy if busy else None, "1/s",
                         f"{len(approx)} approximate runs in {busy:.3f}s of requests")
    out["read_frac"] = (det["read_frac"], "ratio", f"{det['read_frac_runs']} FastMatch runs")
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB",
                          "Python driver")
    out["failed_frac"] = (len(bench.failures) / bench.attempted, "ratio",
                          f"{len(bench.failures)}/{bench.attempted}")
    return out


def per_layer(bench: Bench, tr, traced, untraced, setup_self: dict) -> dict:
    """Per-layer metrics from the traced repetition of the timed requests."""
    import numpy as np

    approx = [r for r in traced if r.approx and r.result is not None]
    scans = [r for r in traced if not r.approx and r.result is not None]
    a_ids = {r.rid for r in approx}
    s_ids = {r.rid for r in scans}
    a_self = tr.self_seconds(a_ids)
    a_calls = tr.calls(a_ids)
    s_self = tr.self_seconds(s_ids)
    check_calls = tr.calls({f"check:{r.rid}" for r in traced})
    na, ns = max(len(approx), 1), max(len(scans), 1)

    def mean(attr):
        return float(np.mean([getattr(r.result, attr) for r in approx])) if approx else 0.0

    considered = sum(r.result.blocks_considered for r in approx)
    modeled = [r.modeled for r in approx if r.modeled is not None]
    bitmap_bytes = sum(pq.bitmap.nbytes + pq.bitmap_t.nbytes for pq in bench.pq.values())
    t_traced = sum(r.latency for r in traced if r.result is not None)
    t_untraced = sum(r.latency for r in untraced if r.result is not None)
    m = {
        "datasets.generate_s": (setup_self.get("datasets.generate", 0.0), "s"),
        "queries.load_dataset_s": (setup_self.get("queries.load_dataset", 0.0), "s"),
        "queries.prepare_s": (setup_self.get("queries.prepare", 0.0), "s"),
        "blocks.build_counts_index_s": (setup_self.get("blocks.build_counts_index", 0.0), "s"),
        "bitmap.bitmap_from_index_s": (setup_self.get("bitmap.bitmap_from_index", 0.0), "s"),
        "queries.bitmap_mb": (bitmap_bytes / 2**20, "MiB"),
        "blocks.gather_s": (a_self.get("blocks.gather", 0.0) / na, "s"),
        "blocks.gather_calls": (a_calls.get("blocks.gather", 0) / na, "count"),
        "runner.fetch_s": (mean("time_fetch"), "s"),
        "blocks.block_counts_s": (a_self.get("blocks.block_counts", 0.0) / na, "s"),
        "runner.spark_jobs": (float(np.mean([len(r.spark_jobs) for r in approx]))
                              if approx else 0.0, "count"),
        "runner.scan_spark_jobs": (float(np.mean([len(r.spark_jobs) for r in scans]))
                                   if scans else 0.0, "count"),
        "runner.run_scan_s": (s_self.get("runner.run_scan", 0.0) / ns, "s"),
        "distance.candidate_distances_s": (s_self.get("distance.candidate_distances", 0.0) / ns,
                                           "s"),
        "runner.run_variant_s": (a_self.get("runner.run_variant", 0.0) / na, "s"),
        "runner.batches": (mean("n_batches"), "count"),
        "runner.blocks_considered": (mean("blocks_considered"), "count"),
        "runner.blocks_read": (mean("blocks_read"), "count"),
        "runner.block_read_ratio": (
            sum(r.result.blocks_read for r in approx) / considered if considered else 0.0,
            "ratio"),
        "runner.decide_s": (mean("time_decide"), "s"),
        "bitmap.mark_naive_s": (a_self.get("bitmap.mark_naive", 0.0) / na, "s"),
        "runner.stats_s": (mean("time_stats"), "s"),
        "histsim.iterate_s": (a_self.get("histsim.iterate", 0.0) / na, "s"),
        "histsim.iterate_calls": (a_calls.get("histsim.iterate", 0) / na, "count"),
        "histsim.update_s": (a_self.get("histsim.update", 0.0) / na, "s"),
        "costmodel.modeled_s": (float(np.mean(modeled)) if modeled else 0.0, "s"),
        "metrics.guarantee_checks": (check_calls.get("metrics.guarantee1", 0)
                                     + check_calls.get("metrics.guarantee2", 0), "count"),
        "trace.spans": (len(tr.spans), "count"),
        "trace.overhead_frac": ((t_traced - t_untraced) / t_untraced if t_untraced else 0.0,
                                "ratio"),
    }
    return m


# -- environment -----------------------------------------------------------

def environment(root: str, bench: Bench, seed: int, master: str) -> dict:
    import numpy as np
    import pandas as pd
    import pyspark

    try:
        commit = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    mem_kb = 0
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    from repro.engine.runner import run_variant

    defaults = run_variant.__kwdefaults__
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gib": round(mem_kb / 2**20, 1),
        "python": platform.python_version(),
        "spark": pyspark.__version__,
        "numpy": np.__version__,
        "pandas": pd.__version__,
        "spark_master": master,
        "shuffle_partitions": bench.spark.conf.get("spark.sql.shuffle.partitions"),
        "driver_memory": DRIVER_MEMORY,
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": seed,
        "sf": SF,
        "n_rows": bench.ds.n_rows,
        "tuples_per_block": bench.ds.tuples_per_block,
        "n_blocks": bench.ds.n_blocks,
        "delta": defaults["delta"],
        "lookahead": defaults["lookahead"],
        "queries": {
            qid: {"V_Z": pq.n_candidates, "V_X": pq.d, "k": pq.spec.k, "eps": pq.spec.eps}
            for qid, pq in bench.pq.items()
        },
    }


def start_spark(tmp: str):
    """A local SparkSession whose scratch files stay under ``tmp``."""
    threads = min(MAX_SPARK_THREADS, len(os.sched_getaffinity(0)))
    master = f"local[{threads}]"
    # Read by every JVM Spark starts (the launcher too), which would
    # otherwise write to the system temporary directory.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master {master}",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf {shlex.quote('spark.local.dir=' + tmp)}",
        f"--conf {shlex.quote('spark.sql.warehouse.dir=' + os.path.join(tmp, 'warehouse'))}",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, master


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM the session started to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _fmt(v, unit="s"):
    return "n/a" if v is None else f"{v:.6g}{unit}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program source at {src}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    out_dir = os.path.join(root, "perfbench", "results")
    tmp = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp

    w = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    spark = None
    try:
        spark, master = start_spark(tmp)
        phases = {"session_s": time.perf_counter() - t0}
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        bench = Bench(w, args.seed, spark)
        bench.tracer = tracer
        phases.update(bench.phases)
        t1 = time.perf_counter()
        bench.oracle_check()
        t2 = time.perf_counter()
        bench.warm_up()
        t3 = time.perf_counter()
        phases.update(oracle_check_s=t2 - t1, warm_up_s=t3 - t2)
        setup_s = t3 - PROCESS_START
        phases["setup_s"] = setup_s

        setup_self = {}
        if tracer is not None:
            setup_self = tracer.self_seconds({None})
            tracer.uninstall()
            tracer.clear()
            bench.tracer = None
        timed, traced = bench.timed_loop(args.seconds, tracer)
        if tracer is not None:
            bench.trace_consistency(tracer, traced)
        det = bench.determinism_pass(timed)
        env = environment(root, bench, args.seed, master)
        report = end_to_end(bench, timed, setup_s, det)
        layers = per_layer(bench, tracer, traced, timed, setup_self) if tracer else {}
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(tmp, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("set-up: " + " ".join(f"{k}={v:.3f}" for k, v in phases.items()))
    for r in timed:
        if w.mode == "spark":
            print(f"request {r.rid} {r.qid} {r.variant} start={r.start_block} "
                  f"measured={_fmt(r.latency)} modeled={_fmt(r.modeled)}"
                  + (f" error={r.error.splitlines()[-1]}" if r.error else ""))
    for qid in w.qids:
        for variant in w.all_variants:
            rs = [r for r in timed if r.qid == qid and r.variant == variant and r.result]
            if not rs:
                print(f"summary {qid} {variant}: n=0 (not reached in the timed window)")
                continue
            lat = [r.latency for r in rs]
            modeled = [r.modeled for r in rs if r.modeled is not None]
            line = (f"summary {qid} {variant}: n={len(rs)} p50={_fmt(statistics.median(lat))} "
                    f"max={max(lat):.6g}s")
            if variant != "scan":
                line += (f" read={statistics.fmean(r.result.tuples_read for r in rs) / bench.ds.n_rows:.4f}"
                         f" batches={statistics.fmean(r.result.n_batches for r in rs):.4g}"
                         f" iters={statistics.fmean(r.result.n_stat_iters for r in rs):.4g}")
                line += (f" modeled_p50={_fmt(statistics.median(modeled))}" if modeled else
                         " modeled=n/a (no Scan in this workload to calibrate from)")
            print(line)
    print("end-to-end (n/a = does not apply to this workload):")
    for name, (value, unit, note) in report.items():
        print(f"  {name} = {_fmt(value, ' ' + unit)} ({note})")
    print(f"determinism: read_frac={det['read_frac']:.6f} over {det['read_frac_runs']} "
          f"FastMatch runs; first-pass digest={det['digest']}")
    if layers:
        print("per-layer (traced twin of each timed request; self time per request):")
        for name, (value, unit) in layers.items():
            print(f"  {name} = {value:.6g} {unit}")
    print(f"checks: attempted={bench.attempted} failed={len(bench.failures)}")
    for f in bench.failures:
        print("  FAILED " + f.replace("\n", " | "))

    record = {
        "workload": args.workload, "environment": env, "set_up": phases,
        "end_to_end": {k: list(v) for k, v in report.items()},
        "per_layer": {k: list(v) for k, v in layers.items()},
        "determinism": det, "failures": bench.failures,
        "requests": [
            {"rid": r.rid, "qid": r.qid, "variant": r.variant, "start_block": r.start_block,
             "latency_s": r.latency, "modeled_s": r.modeled, "error": r.error,
             **({"tuples_read": r.result.tuples_read, "blocks_read": r.result.blocks_read,
                 "batches": r.result.n_batches, "stat_iters": r.result.n_stat_iters}
                if r.approx and r.result is not None else {})}
            for r in timed
        ],
    }
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + "-spans.json.gz",
                     {r.rid: r.spark_jobs for r in traced if r.spark_jobs})

    metrics = layers if args.trace else {k: report[k][:2] for k in GATED}
    missing = [k for k, (v, _) in metrics.items() if v is None]
    if missing:
        print(f"perfbench: no samples for {missing}; raise --seconds", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

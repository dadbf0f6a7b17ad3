"""One measured run of one workload: the process that starts Ray and
submits every job, which ``run.py`` starts in a session of its own.

Phases, in order:

1. Set-up, ``SETUPS`` times: ``ray.init`` and a warm-up pass (one job cycle
   on the corpus's warm-up slice).  All but the last session are shut down.
   A set-up's time is that of ``ray.init`` plus the warm-up jobs' walls.
2. Measurement: job cycles back to back, one job at a time, until
   ``--seconds`` have passed.  A cycle is the turns job, the fields job,
   ``run_checkpointed``, ``write_conversations``, the deletion of
   ``DROP_PARTITIONS`` partitions and the resuming ``run_checkpointed``.
3. Checks: row counts, resume identity and the rollup after every cycle;
   the oracle sample once, on the last cycle's outputs.
4. With ``--trace 1``: the per-layer ledger.

The result is written as JSON to ``--result``.  Ray is shut down in a
``finally``, whatever happened.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import pyarrow.parquet as pq

import check
import corpus
import ledger
import procs

SETUPS = 3
NUM_PARTITIONS = 16
DROP_PARTITIONS = 4
ORACLE_SAMPLE = 1000
OBJECT_STORE_BYTES = 512 << 20


class Run:
    """Counts operations and failures across the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def job(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(f"{name}: {p}" for p in problems)


def _rm(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def _manifest_times(out_dir: str) -> dict[str, int]:
    mdir = os.path.join(out_dir, "_manifests")
    return {n: os.stat(os.path.join(mdir, n)).st_mtime_ns
            for n in os.listdir(mdir) if n.endswith(".json")}


def cycle(run: Run, paths: list[str], expect_turns: int, n_fields: int,
          work: str, cfg, drop: list[int]) -> dict:
    """One job cycle.  Returns the job walls, the turns job's dataset (for
    its stats) and the checkpoint counters."""
    from amazon_textract_transformer_pipeline_ray.pipelines.extraction import (
        build_turns, read_transcripts, run_checkpointed, write_conversations)
    from amazon_textract_transformer_pipeline_ray.state.checkpoint import (
        manifest_path)

    out_t, out_f, out_c = (os.path.join(work, d)
                           for d in ("turns", "fields", "ckpt"))
    for d in (out_t, out_f, out_c):
        _rm(d)
    walls: dict[str, float] = {}

    t0 = time.perf_counter()
    ds = build_turns(read_transcripts(paths))
    ds.write_parquet(out_t)
    walls["turns"] = time.perf_counter() - t0
    n = check.count_rows(out_t)
    run.job("turns", [] if n == expect_turns else
            [f"{n} rows, expected {expect_turns} non-empty turns"])

    t0 = time.perf_counter()
    build_turns(read_transcripts(paths), emit="fields").write_parquet(out_f)
    walls["fields"] = time.perf_counter() - t0
    n = check.count_rows(out_f)
    run.job("fields", [] if n == expect_turns * n_fields else
            [f"{n} rows, expected {expect_turns} x {n_fields}"])

    t0 = time.perf_counter()
    first = run_checkpointed(paths, out_c, cfg)
    walls["ckpt"] = time.perf_counter() - t0
    data = os.path.join(out_c, "data")
    ckpt_rows = check.read_sorted(data)
    problems = check.same_rows("checkpointed vs turns job", ckpt_rows,
                               check.read_sorted(out_t))
    if first["turns_processed"] != expect_turns:
        problems.append(f"manifests count {first['turns_processed']} turns")
    run.job("checkpointed", problems)
    manifests_written = len(_manifest_times(out_c))

    t0 = time.perf_counter()
    rollup = write_conversations(out_c)
    walls["rollup"] = time.perf_counter() - t0
    run.job("rollup", check.conversations(
        ckpt_rows, os.path.join(out_c, "conversations")))

    for pid in drop:
        _rm(os.path.join(data, f"partition_id={pid}"))
        os.remove(manifest_path(out_c, pid))
    kept = _manifest_times(out_c)
    t0 = time.perf_counter()
    again = run_checkpointed(paths, out_c, cfg)
    walls["resume"] = time.perf_counter() - t0
    after = _manifest_times(out_c)
    recomputed = sum(1 for n, t in after.items() if kept.get(n) != t)
    problems = check.same_rows("resumed vs first run",
                               check.read_sorted(data), ckpt_rows)
    if again != first:
        problems.append("run summary changed on resume")
    run.job("resume", problems)

    return {
        "walls": walls, "turns_ds": ds, "convs_out": rollup["n_conversations"],
        "counters": {
            "state.checkpoint.manifests_written": manifests_written,
            "state.checkpoint.partitions_recomputed": recomputed,
            "state.checkpoint.partitions_skipped": len(after) - recomputed,
            "state.checkpoint.turns_dropped_empty": first["turns_dropped_empty"],
        },
    }


def _ray_init(ray_tmp: str):
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=procs.nproc(), include_dashboard=False,
             logging_level="ERROR", _temp_dir=ray_tmp,
             object_store_memory=OBJECT_STORE_BYTES)
    DataContext.get_current().enable_progress_bars = False


def _identity(batch):
    return batch


def trace(paths: list[str], corpus_dir: str, work: str, cfg, last: dict,
          n_turns: int) -> dict[str, float]:
    """The per-layer metrics, measured after the timed cycles."""
    import ray.data as rd

    from amazon_textract_transformer_pipeline_ray.pipelines.extraction import (
        build_conversations, read_transcripts)

    layers = ledger.ray_split(ledger.parse_stats(last["turns_ds"].stats()),
                              last["walls"]["turns"])
    walls = []
    for _ in range(ledger.REPS):
        out = os.path.join(work, "identity")
        _rm(out)
        t0 = time.perf_counter()
        read_transcripts(paths).map_batches(
            _identity, batch_format="pyarrow", batch_size=512).write_parquet(out)
        walls.append(time.perf_counter() - t0)
    layers["ray.identity_floor_us_per_batch"] = (
        statistics.median(walls) / -(-n_turns // 512) * 1e6)

    data = os.path.join(work, "ckpt", "data")
    turns = rd.read_parquet(data, columns=[
        "conv_id", "turn_idx", "n_words", "boilerplate_ratio", "n_spans",
        "review_needed", "extracted_text"])
    convs = build_conversations(turns)
    out = os.path.join(work, "convs")
    _rm(out)
    convs.write_parquet(out)
    ops = ledger.parse_stats(convs.stats())
    layers["stages.conversation.shuffle_s"] = sum(o["shuffle_s"] for o in ops)
    layers["stages.conversation.rows_in"] = float(ops[0]["rows"])
    layers["stages.conversation.convs_out"] = float(check.count_rows(out))

    batch = pq.read_table(paths[0]).slice(0, 512)
    dialect_texts = {
        d: pq.read_table(os.path.join(corpus_dir, f"ledger-{d}.parquet"))
        .column("text").to_pylist() for d in corpus.DIALECTS}
    layers.update(ledger.kernel(batch, dialect_texts, cfg))
    return layers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, required=True)
    ap.add_argument("--corpus", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    import ray

    from amazon_textract_transformer_pipeline_ray.config import EngineConfig

    with open(os.path.join(args.corpus, "meta.json")) as f:
        meta = json.load(f)
    cfg = EngineConfig(num_partitions=NUM_PARTITIONS)
    n_fields = sum(1 for fc in cfg.fields if not fc.ignore)
    paths = corpus.shard_paths(args.corpus)
    warm = [os.path.join(args.corpus, "warm.parquet")]
    rng = np.random.default_rng(args.seed)
    drop = sorted(rng.choice(NUM_PARTITIONS, DROP_PARTITIONS,
                             replace=False).tolist())
    expect = meta["turns"] - meta["empty_turns"]
    warm_expect = meta["warm_turns"] - meta["warm_empty_turns"]

    run = Run()
    result: dict = {}
    samples: dict[str, list[float]] = {k: [] for k in (
        "setup", "turns", "fields", "ckpt", "rollup", "resume")}
    phases = {"start": time.perf_counter()}
    try:
        for i in range(SETUPS):
            t0 = time.perf_counter()
            _ray_init(args.ray_tmp)
            init_s = time.perf_counter() - t0
            warm_up = cycle(run, warm, warm_expect, n_fields, args.work, cfg,
                            drop)
            samples["setup"].append(init_s + sum(warm_up["walls"].values()))
            if i < SETUPS - 1:
                ray.shutdown()

        phases["setup"] = time.perf_counter()
        deadline = time.perf_counter() + args.seconds
        last = None
        check_s = 0.0
        cycle_s = 0.0
        rss: list[float] = []
        # A cycle starts only if it should end less than half a cycle
        # past the deadline, so a run measures about --seconds.
        while last is None or time.perf_counter() + cycle_s / 2 < deadline:
            # Ray replaces its workers over a run, and one occasionally
            # peaks ~100 MB higher for a cycle, so the peak is taken per
            # cycle and reported as the median.
            procs.reset_peak_rss(procs.live_pids(os.getsid(0)))
            t0 = time.perf_counter()
            last = cycle(run, paths, expect, n_fields, args.work, cfg, drop)
            rss.append(procs.peak_rss_mb(procs.live_pids(os.getsid(0))))
            for job, wall in last["walls"].items():
                samples[job].append(wall)
            cycle_s = time.perf_counter() - t0
            check_s += cycle_s - sum(last["walls"].values())
        phases["measure"] = time.perf_counter()
        result["measure_checks_s"] = round(check_s, 2)
        result["peak_rss_mb"] = statistics.median(rss)

        inputs = pq.read_table(paths, columns=["conv_id", "turn_idx", "text"])
        run.job("oracle sample", check.oracle_sample(
            inputs, pq.read_table(os.path.join(args.work, "turns")),
            pq.read_table(os.path.join(args.work, "fields")), cfg,
            args.seed, ORACLE_SAMPLE))

        phases["oracle"] = time.perf_counter()
        med = {k: statistics.median(v) for k, v in samples.items()}
        result["e2e"] = {
            "setup_s": med["setup"],
            "turns_per_s": meta["turns"] / med["turns"],
            "fields_turns_per_s": meta["turns"] / med["fields"],
            "ckpt_turns_per_s": meta["turns"] / med["ckpt"],
            "rollup_convs_per_s": last["convs_out"] / med["rollup"],
            "resume_s": med["resume"],
        }
        result["cycles"] = len(samples["turns"])
        result["walls"] = samples
        if args.trace:
            layers = trace(paths, args.corpus, args.work, cfg, last,
                           meta["turns"])
            layers.update(last["counters"])
            layers["state.checkpoint.turns_dropped_empty_actual"] = float(
                meta["turns"] - check.count_rows(
                    os.path.join(args.work, "ckpt", "data")))
            layers["ledger.turns_job_us"] = med["turns"] / meta["turns"] * 1e6
            per_turn = ledger.attribute(layers, meta["dialects"],
                                        meta["turns"])
            top = max(per_turn, key=per_turn.get)
            result["largest_layer"] = [top, per_turn[top]]
            result["layers"] = layers
            phases["trace"] = time.perf_counter()
    except Exception:  # a failed job is a counted result, not a crash
        run.attempted += 1
        run.failed += 1
        run.errors.append(traceback.format_exc())
    finally:
        ray.shutdown()
        phases["shutdown"] = time.perf_counter()
        marks = list(phases.items())
        result["phases_s"] = {k: round(t - marks[i][1], 2)
                              for i, (k, t) in enumerate(marks[1:])}
        result.update(attempted=run.attempted, failed=run.failed,
                      errors=run.errors, meta=meta, drop=drop)
        with open(args.result, "w") as f:
            json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

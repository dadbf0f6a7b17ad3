"""Benchmark of the transcript-extraction engine on one CPU-sized host.

Usage, from the repository root (or any directory)::

    python3 perfbench/run.py --workload extract-layout --seed 1 \\
        --seconds 30 --trace 0

Workloads (inputs in ``corpus.py``):

- ``extract-layout``: Textract-style layout JSON only (~25 KB a turn).
- ``extract-chat``: html and plain payloads only (<1 KB a turn).

Both run the same job cycle (``child.py``) against the package's public
entry points, one job at a time, on a Ray started with ``num_cpus`` equal
to what ``nproc`` reports.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer ledger instead.

This script generates the seeded input (cached under ``.pb/cache``), then
runs the measured run in a child process of its own session with a hard
timeout.  After the child exits it checks that no process of that session
(raylet, gcs_server, ``ray::`` workers) is still alive; any that is gets
killed and counted as a failure.  The child's Ray temp dir and outputs are
removed.  The last line of standard output is the result as one JSON
object; a run that produced no metrics exits with a non-zero code and
prints none.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import procs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "amazon_textract_transformer_pipeline_ray"
WORK_ROOT = os.path.join(ROOT, ".pb")
RUN_LIMIT_S = 150    # the whole run, generation included; leaves time to reap
EXIT_GRACE_S = 5     # for Ray processes already told to exit
# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets
# ~66 bytes below its temp dir.
MAX_RAY_TMP = 40

SCHEMA_HASH_WARNING = "Failed to hash the schemas"


def _ray_tmp(work: str) -> tuple[str, bool]:
    """A Ray temp dir inside the run's work dir, or, when that path is too
    long for Ray's sockets, a fresh one under the system temp dir."""
    path = os.path.join(work, "r")
    if len(path) <= MAX_RAY_TMP:
        return path, False
    return tempfile.mkdtemp(prefix="pb"), True


def _schema_hash_warnings(ray_tmp: str) -> int:
    """Schema-hash warnings in the run's Ray sessions.  Only each session's
    ``ray-data.log`` is read: it collects Ray Data's log lines from the
    run's main process and every worker, which other log files repeat."""
    count = 0
    for dirpath, _, names in os.walk(ray_tmp):
        if "ray-data.log" in names:
            with open(os.path.join(dirpath, "ray-data.log"), "rb") as f:
                count += f.read().count(SCHEMA_HASH_WARNING.encode())
    return count


def _reap(session: int, marker: str) -> int:
    """Wait briefly for the session's processes to exit, then kill what is
    left.  Returns how many had to be killed."""
    deadline = time.monotonic() + EXIT_GRACE_S
    while procs.live_pids(session, marker) and time.monotonic() < deadline:
        time.sleep(0.2)
    left = procs.live_pids(session, marker)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while procs.live_pids(session, marker) and time.monotonic() < deadline + 10:
        time.sleep(0.2)
    return len(left)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    if not os.path.isdir(os.path.join(ROOT, PACKAGE)):
        print(f"perfbench: package {PACKAGE} not found under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    import corpus

    if args.workload not in corpus.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    corpus_dir = corpus.ensure_corpus(os.path.join(WORK_ROOT, "cache"),
                                      args.workload, args.seed)

    work = os.path.join(WORK_ROOT, f"run{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ray_tmp, ray_tmp_outside = _ray_tmp(work)
    result_path = os.path.join(work, "result.json")
    env = dict(os.environ, PYTHONPATH=ROOT, RAY_USAGE_STATS_ENABLED="0")
    load_start = procs.loadavg()
    steal0, total0 = procs.cpu_jiffies()
    timed_out = False
    child_started = time.monotonic()
    with open(os.path.join(work, "child.log"), "wb") as log:
        child = subprocess.Popen(
            [sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--corpus", corpus_dir, "--work", work, "--ray-tmp", ray_tmp,
             "--result", result_path],
            cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            child.wait(timeout=max(
                1.0, RUN_LIMIT_S - (time.monotonic() - started)))
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:  # also on SIGTERM or Ctrl-C: nothing of the run survives
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
            leaked = _reap(child.pid, ray_tmp)
            steal1, total1 = procs.cpu_jiffies()
            warnings = _schema_hash_warnings(ray_tmp)
            result = None
            if os.path.exists(result_path):
                with open(result_path) as f:
                    result = json.load(f)
            with open(os.path.join(work, "child.log"), errors="replace") as f:
                child_log = f.read()
            shutil.rmtree(work, ignore_errors=True)
            if ray_tmp_outside:
                shutil.rmtree(ray_tmp, ignore_errors=True)

    if timed_out:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s; its process group "
              "was killed", file=sys.stderr)
    if leaked:
        print(f"perfbench: {leaked} process(es) outlived the run and were "
              "killed", file=sys.stderr)
    if result is None or "e2e" not in result:
        print(child_log[-4000:], file=sys.stderr)
        for err in (result or {}).get("errors", []):
            print(err, file=sys.stderr)
        return 1

    attempted = result["attempted"] + 1  # the teardown is an operation too
    failed = result["failed"] + (1 if leaked or timed_out else 0)
    for err in result["errors"]:
        print(f"FAILED {err}")
    meta = result["meta"]
    print(f"workload {args.workload} seed {args.seed}: {meta['turns']} turns "
          f"({meta['dialects']}), {meta['conversations']} conversations, "
          f"{meta['empty_turns']} empty; {result['cycles']} cycles; "
          f"partitions {result['drop']} resumed")
    print(f"phases (s): input {child_started - started:.1f}, "
          + ", ".join(f"{k} {v}" for k, v in result["phases_s"].items())
          + f", total {time.monotonic() - started:.1f}; checks within "
          f"measure {result['measure_checks_s']}")
    for job, walls in result["walls"].items():
        print(f"  {job} walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.trace:
        layers = result["layers"]
        top, top_us = result["largest_layer"]
        print(f"largest layer: {top} ({top_us:.1f} us/turn of "
              f"{layers['ledger.turns_job_us']:.1f} us/turn in the turns job)")
        print(f"ledger gap: {layers['ledger.gap_us']:.1f} us/turn of the "
              "untraced turns-job wall is not attributed to a layer")
        layers["host.nproc"] = float(procs.nproc())
        layers["host.steal_pct"] = (
            100.0 * (steal1 - steal0) / max(1, total1 - total0))
        layers["host.loadavg_start"] = load_start
        layers["log.schema_hash_warnings"] = float(warnings)
        layers["failed_frac"] = failed / attempted
        values, wanted = layers, spec["per_layer"]
    else:
        values = dict(result["e2e"], peak_rss_mb=result["peak_rss_mb"],
                      ok_frac=1.0 - failed / attempted)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted}
    for k, m in metrics.items():
        print(f"  {k:48s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

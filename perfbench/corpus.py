"""Seeded benchmark inputs, generated in one process and cached on disk.

Every workload corpus is built from the package's seeded transcript
generator (``fixtures.gen_transcript_rows_for``).  Dialect-pure corpora keep
only the generated rows whose payload ``functions.turn.detect_dialect``
assigns to the workload's dialects.  Rows are shuffled with the seed and
written as Parquet shards; the program under test only ever sees their
paths.

A corpus directory holds:

- ``shard-*.parquet``: the measured input.
- ``warm.parquet``: the first ``WARM_TURNS`` rows, used by the warm-up pass.
- ``ledger-<dialect>.parquet``: ``LEDGER_TURNS`` dialect-pure turns per
  dialect, for the traced kernel ledger.
- ``meta.json``: row counts, dialect counts and the empty-turn count, which
  the independent oracle's parser computes.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from amazon_textract_transformer_pipeline_ray.fixtures import (
    TRANSCRIPT_SCHEMA, conversation_sizes, gen_transcript_rows_for)
from amazon_textract_transformer_pipeline_ray.functions.turn import (
    detect_dialect)
from amazon_textract_transformer_pipeline_ray.oracle_independent import (
    _parse as oracle_parse)

DIALECTS = ("layout", "html", "plain")
N_SHARDS = 4
WARM_TURNS = 256
LEDGER_TURNS = 256
CACHE_KEEP = 48  # newest corpora kept; older ones are deleted

# name -> (dialects kept, turns)
WORKLOADS: dict[str, tuple[tuple[str, ...], int]] = {
    "extract-layout": (("layout",), 2000),
    "extract-chat": (("html", "plain"), 6000),
}

# Generator share of each dialect; only used to size how many turns to
# generate before filtering.
_SHARE = {"layout": 0.30, "html": 0.45, "plain": 0.25}


def _filtered_rows(seed: int, dialects: tuple[str, ...],
                   n_turns: int) -> dict[str, list]:
    """The first ``n_turns`` generated rows of the given dialects, walking
    the generator's conversations (mega-conversation first) in order."""
    share = sum(_SHARE[d] for d in dialects)
    factor = 1.25
    while True:
        sizes = conversation_sizes(int(n_turns / share * factor) + 1, seed)
        pairs = [(ci, t) for ci, size in enumerate(sizes)
                 for t in range(size)]
        rows = gen_transcript_rows_for(pairs, seed)
        keep = [i for i, p in enumerate(rows["text"])
                if detect_dialect(p) in dialects]
        if len(keep) >= n_turns:
            keep = keep[:n_turns]
            return {k: [v[i] for i in keep] for k, v in rows.items()}
        factor *= 1.5


def _table(rows: dict[str, list], shuffle_seed: int) -> pa.Table:
    order = np.random.default_rng(shuffle_seed).permutation(
        len(rows["conv_id"]))
    arrays = [pa.array([rows[f.name][i] for i in order], f.type)
              for f in TRANSCRIPT_SCHEMA]
    return pa.Table.from_arrays(arrays, schema=TRANSCRIPT_SCHEMA)


def _write(table: pa.Table, path: str) -> None:
    pq.write_table(table, path, compression="zstd", row_group_size=512)


def _build(corpus_dir: str, workload: str, seed: int) -> None:
    dialects, n_turns = WORKLOADS[workload]
    table = _table(_filtered_rows(seed, dialects, n_turns), seed + 1)
    os.makedirs(corpus_dir)
    step = -(-table.num_rows // N_SHARDS)
    for s in range(N_SHARDS):
        _write(table.slice(s * step, step),
               os.path.join(corpus_dir, f"shard-{s}.parquet"))
    _write(table.slice(0, WARM_TURNS), os.path.join(corpus_dir, "warm.parquet"))
    # The ledger's dialect-pure samples come from a second seed stream, so
    # every workload has all three, whatever its own mix.
    for d in DIALECTS:
        _write(_table(_filtered_rows(seed + 7, (d,), LEDGER_TURNS), seed + 8),
               os.path.join(corpus_dir, f"ledger-{d}.parquet"))
    texts = table.column("text").to_pylist()
    empty = [not oracle_parse(p).words for p in texts]
    mix = {d: 0 for d in DIALECTS}
    for p in texts:
        mix[detect_dialect(p)] += 1
    meta = {
        "workload": workload, "seed": seed, "turns": table.num_rows,
        "conversations": len(set(table.column("conv_id").to_pylist())),
        "empty_turns": sum(empty), "dialects": mix,
        "warm_turns": min(WARM_TURNS, table.num_rows),
        "warm_empty_turns": sum(empty[:WARM_TURNS]),
    }
    with open(os.path.join(corpus_dir, "meta.json"), "w") as f:
        json.dump(meta, f)


def shard_paths(corpus_dir: str) -> list[str]:
    return [os.path.join(corpus_dir, f"shard-{s}.parquet")
            for s in range(N_SHARDS)]


def ensure_corpus(cache_dir: str, workload: str, seed: int) -> str:
    """Path of the (workload, seed, size) corpus, generating it if absent."""
    n_turns = WORKLOADS[workload][1]
    path = os.path.join(cache_dir, f"{workload}-s{seed}-n{n_turns}")
    if os.path.exists(os.path.join(path, "meta.json")):
        os.utime(path)
        return path
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    _build(tmp, workload, seed)
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    _prune(cache_dir, keep=path)
    return path


def _prune(cache_dir: str, keep: str) -> None:
    entries = sorted(
        (os.path.join(cache_dir, n) for n in os.listdir(cache_dir)),
        key=os.path.getmtime, reverse=True)
    for old in entries[CACHE_KEEP:]:
        if old != keep:
            shutil.rmtree(old, ignore_errors=True)

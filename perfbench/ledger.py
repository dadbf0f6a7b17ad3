"""The traced per-layer ledger.

Two sources, neither of which instruments the package:

- Kernel layers, timed in the benchmark's own process around calls into
  ``functions.*`` and ``stages.extract`` on fixed batches (the same 512-row
  batch size the turns job uses).
- Ray operators, parsed from the text of ``Dataset.stats()``.
"""

from __future__ import annotations

import gc
import re
import statistics
import time

import pyarrow as pa

from amazon_textract_transformer_pipeline_ray.functions.assembler import (
    assemble_turns)
from amazon_textract_transformer_pipeline_ray.functions.classifier import (
    classify_turns)
from amazon_textract_transformer_pipeline_ray.functions.consolidate import (
    consolidate_turn, normalize_detections)
from amazon_textract_transformer_pipeline_ray.functions.turn import (
    extract_turns_batch, parse_payloads_batch)
from amazon_textract_transformer_pipeline_ray.stages.extract import (
    make_extract_fn)

REPS = 3

_OP = re.compile(r"^Operator \d+ (.+?): (?:(\d+) tasks executed, (\d+) blocks "
                 r"produced in [\d.]+s|executed in ([\d.]+)s)")
_SUBOP = re.compile(r"^\s+Suboperator \d+ .+?: (\d+) tasks executed")
_TOTAL = re.compile(r"([\d.]+)(us|ms|s) total")
_COUNT_TOTAL = re.compile(r"(\d+) total")
_SCALE = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_stats(text: str) -> list[dict]:
    """One dict per operator of a ``Dataset.stats()`` text: name, tasks,
    blocks, remote wall ``wall_s`` and ``udf_s`` (suboperators summed into
    their operator), output ``rows`` and ``bytes``, and ``shuffle_s`` (the
    wall of an all-to-all operator)."""
    ops: list[dict] = []
    sub = False
    for line in text.splitlines():
        m = _OP.match(line)
        if m:
            ops.append({"name": m.group(1), "tasks": int(m.group(2) or 0),
                        "blocks": int(m.group(3) or 0), "wall_s": 0.0,
                        "udf_s": 0.0, "rows": 0, "bytes": 0,
                        "shuffle_s": float(m.group(4) or 0.0)})
            sub = False
            continue
        if not ops:
            continue
        op = ops[-1]
        m = _SUBOP.match(line)
        if m:
            op["tasks"] += int(m.group(1))
            sub = True
            continue
        item = line.strip().lstrip("* ")
        t = _TOTAL.search(item)
        if item.startswith("Remote wall time") and t:
            op["wall_s"] += float(t.group(1)) * _SCALE[t.group(2)]
        elif item.startswith("UDF time") and t:
            op["udf_s"] += float(t.group(1)) * _SCALE[t.group(2)]
        elif not sub and item.startswith("Output num rows per block"):
            op["rows"] = int(_COUNT_TOTAL.search(item).group(1))
        elif not sub and item.startswith("Output size bytes per block"):
            op["bytes"] = int(_COUNT_TOTAL.search(item).group(1))
    return ops


def ray_split(ops: list[dict], job_wall: float) -> dict[str, float]:
    """Split a read->map->write job's operators into read / UDF / write.

    A fused ``...MapBatches(...)->Write`` operator's wall beyond its UDF
    time is write time; a read operator that carries no UDF is read time.
    ``overhead_s`` is the job wall no operator's remote wall covers."""
    out = {"ray.read_s": 0.0, "ray.udf_s": 0.0, "ray.write_s": 0.0}
    for op in ops:
        out["ray.udf_s"] += op["udf_s"]
        rest = op["wall_s"] - op["udf_s"]
        if "Write" in op["name"]:
            out["ray.write_s"] += rest
        elif "Read" in op["name"]:
            out["ray.read_s"] += rest
    out["ray.overhead_s"] = job_wall - sum(op["wall_s"] for op in ops)
    reads = [op for op in ops if op["name"].startswith("Read")]
    out["ray.tasks"] = float(sum(op["tasks"] for op in ops))
    out["ray.blocks"] = float(sum(op["blocks"] for op in reads))
    out["ray.read_bytes"] = float(sum(op["bytes"] for op in reads))
    return out


def _median_us(seconds: list[float], n: int) -> float:
    return statistics.median(seconds) / n * 1e6


def _consolidate(tbs, asm, cfg) -> None:
    for tb, a in zip(tbs, asm):
        if tb.n_words:
            normalize_detections(a.detections, cfg)
            consolidate_turn(a.detections, cfg)


def kernel(batch: pa.Table, dialect_texts: dict[str, list[str]],
           cfg) -> dict[str, float]:
    """µs per turn of each kernel layer on ``batch`` (transcript rows), the
    per-dialect parse cost on dialect-pure batches, and the count bases."""
    texts = batch.column("text").to_pylist()
    n = len(texts)
    times: dict[str, list[float]] = {}

    def timed(name, fn, *args):
        gc.collect()  # no layer pays for another's garbage
        t0 = time.perf_counter()
        out = fn(*args)
        times.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    turns_fn = make_extract_fn(cfg, "turns")
    fields_fn = make_extract_fn(cfg, "fields")
    turns_fn(batch.slice(0, 8))
    fields_fn(batch.slice(0, 8))
    for _ in range(REPS):
        for d, d_texts in dialect_texts.items():
            timed(f"functions.parse_us.{d}", parse_payloads_batch, d_texts)
        tbs = timed("functions.parse_us", parse_payloads_batch, texts)
        preds = timed("functions.classify_us", classify_turns, tbs,
                      cfg.n_classes, cfg.max_seq_len)
        asm = timed("functions.assemble_us", assemble_turns, tbs, preds,
                    cfg.entity_classes)
        timed("functions.consolidate_us", _consolidate, tbs, asm, cfg)
        timed("kernel", extract_turns_batch, texts, cfg)
        timed("stages.extract.udf_us", turns_fn, batch)
        timed("stages.extract.fields_udf_us", fields_fn, batch)

    out = {}
    for name, secs in times.items():
        d = name.rsplit(".", 1)[-1]
        out[name] = _median_us(secs, len(dialect_texts[d]) if d in
                               dialect_texts else n)
    out["stages.extract.emit_us"] = (out["stages.extract.udf_us"]
                                     - out.pop("kernel"))
    out["functions.words_per_turn"] = sum(tb.n_words for tb in tbs) / n
    out["functions.spans_per_turn"] = sum(
        len(a.detections) for tb, a in zip(tbs, asm) if tb.n_words) / n
    return out


# Kernel layers measured on the workload's own batch; parse is added per
# dialect, weighted by the workload's dialect mix.
_KERNEL_LAYERS = ("functions.classify_us", "functions.assemble_us",
                  "functions.consolidate_us", "stages.extract.emit_us")
_RAY_LAYERS = ("ray.read_s", "ray.write_s", "ray.overhead_s")


def attribute(layers: dict[str, float], dialects: dict[str, int],
              n_turns: int) -> dict[str, float]:
    """µs per input turn that each layer adds to the turns job.  Their sum
    falls short of the job's untraced wall per turn by ``ledger.gap_us``,
    which this sets in ``layers``."""
    per_turn = {f"functions.parse_us.{d}":
                layers[f"functions.parse_us.{d}"] * n / n_turns
                for d, n in dialects.items()}
    per_turn.update({k: layers[k] for k in _KERNEL_LAYERS})
    per_turn.update({k: layers[k] / n_turns * 1e6 for k in _RAY_LAYERS})
    layers["ledger.gap_us"] = (layers["ledger.turns_job_us"]
                               - sum(per_turn.values()))
    return per_turn


"""Output checks, run outside every timed section.

Each function returns a list of mismatch descriptions; an empty list means
the output passed.  The per-turn check compares a seeded sample of output
rows with ``oracle_independent``, which shares no kernel code with the
package; the other checks compare whole tables with pyarrow.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pds
import pyarrow.parquet as pq

from amazon_textract_transformer_pipeline_ray.oracle_independent import (
    oracle_extract_turn)

_KEY = [("conv_id", "ascending"), ("turn_idx", "ascending")]
_SPAN_EXACT = ("class_id", "class_name", "text", "raw_text", "start", "end",
               "page", "x0", "y0", "x1", "y1")


def count_rows(path: str) -> int:
    return pds.dataset(path, format="parquet").count_rows()


def read_sorted(path: str) -> pa.Table:
    """A turns output (plain or hive-partitioned) sorted by turn key, with
    the partition column dropped."""
    t = pq.read_table(path)
    if "partition_id" in t.column_names:
        t = t.drop_columns(["partition_id"])
    return t.sort_by(_KEY)


def same_rows(name: str, got: pa.Table, want: pa.Table) -> list[str]:
    if got.schema != want.schema:
        return [f"{name}: schema differs"]
    if not got.equals(want):
        return [f"{name}: {got.num_rows} rows differ from {want.num_rows}"]
    return []


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-5, abs_tol=1e-6)


def _turn_mismatch(got: dict, exp: dict) -> str | None:
    for k in ("extracted_text", "n_words", "n_spans", "review_needed"):
        if got[k] != exp[k]:
            return k
    for k in ("boilerplate_ratio", "doc_confidence"):
        if not _close(got[k], exp[k]):
            return k
    if len(got["spans"]) != len(exp["spans"]):
        return "spans"
    for gs, es in zip(got["spans"], exp["spans"]):
        if any(gs[k] != es[k] for k in _SPAN_EXACT):
            return "spans"
        if not _close(gs["confidence"], es["confidence"]):
            return "spans.confidence"
    return None


def _fields_mismatch(got: list[dict], exp: dict) -> str | None:
    want = exp["fields"]
    if len(got) != len(want):
        return "field count"
    for g, e in zip(sorted(got, key=lambda r: r["sort_order"]), want):
        if (g["field_name"], g["class_id"], g["value"], g["num_detections"],
                g["num_detected_values"], g["sort_order"], g["optional"],
                g["review_needed"]) != (
                e["name"], e["class_id"], e["value"], e["num_detections"],
                e["num_detected_values"], e["sort_order"],
                bool(e["optional"]), exp["review_needed"]):
            return f"field {e['name']}"
        if not _close(g["confidence"], e["confidence"]):
            return f"field {e['name']} confidence"
        gv, ev = g["values"], e["values"]
        if ([v["value"] for v in gv] != [v[0] for v in ev]
                or not all(_close(v["confidence"], c)
                           for v, (_, c) in zip(gv, ev))):
            return f"field {e['name']} values"
    return None


def _row_index(t: pa.Table) -> dict[tuple, list[int]]:
    index: dict[tuple, list[int]] = {}
    keys = zip(t.column("conv_id").to_pylist(), t.column("turn_idx").to_pylist())
    for i, key in enumerate(keys):
        index.setdefault(key, []).append(i)
    return index


def oracle_sample(inputs: pa.Table, turns: pa.Table, fields: pa.Table,
                  cfg, seed: int, k: int) -> list[str]:
    """Compare ``k`` seeded input turns with the independent oracle: the
    turn row and its field rows must match, and an empty turn must have no
    rows at all."""
    pick = np.sort(np.random.default_rng(seed).choice(
        inputs.num_rows, min(k, inputs.num_rows), replace=False))
    sample = inputs.take(pa.array(pick)).to_pylist()
    t_index, f_index = _row_index(turns), _row_index(fields)
    bad: list[str] = []
    for row in sample:
        key = (row["conv_id"], row["turn_idx"])
        exp = oracle_extract_turn(row["text"], cfg)
        t_rows, f_rows = t_index.get(key, []), f_index.get(key, [])
        if exp is None:
            if t_rows or f_rows:
                bad.append(f"{key}: empty turn has output rows")
            continue
        if len(t_rows) != 1:
            bad.append(f"{key}: {len(t_rows)} turn rows")
            continue
        what = _turn_mismatch(turns.slice(t_rows[0], 1).to_pylist()[0], exp)
        what = what or _fields_mismatch(
            fields.take(pa.array(f_rows)).to_pylist(), exp)
        if what:
            bad.append(f"{key}: {what} differs from oracle")
    return bad


def conversations(turns: pa.Table, conv_path: str) -> list[str]:
    """The rollup must equal a pyarrow group-by of the turns it rolled up,
    including the per-conversation text digest."""
    got = pq.read_table(conv_path).sort_by("conv_id")
    t = turns.append_column(
        "review_i", pc.cast(turns.column("review_needed"), pa.int64()))
    want = t.group_by("conv_id").aggregate([
        ("turn_idx", "count"), ("turn_idx", "min"), ("turn_idx", "max"),
        ("n_words", "sum"), ("n_spans", "sum"), ("review_i", "sum"),
        ("boilerplate_ratio", "mean"),
    ]).sort_by("conv_id")
    if not got.column("conv_id").equals(want.column("conv_id")):
        return [f"{got.num_rows} conversations, "
                f"expected {want.num_rows}"]
    pairs = {
        "n_turns": "turn_idx_count", "first_turn_idx": "turn_idx_min",
        "last_turn_idx": "turn_idx_max", "total_words": "n_words_sum",
        "total_spans": "n_spans_sum", "n_review_needed": "review_i_sum",
    }
    bad = [f"{g} differs" for g, w in pairs.items()
           if got.column(g).to_pylist() != want.column(w).to_pylist()]
    if not all(_close(a, b) for a, b in zip(
            got.column("mean_boilerplate_ratio").to_pylist(),
            want.column("boilerplate_ratio_mean").to_pylist())):
        bad.append("mean_boilerplate_ratio differs")
    if not pc.all(got.column("turns_unique_ordered")).as_py():
        bad.append("turns not unique and ordered")
    digests: dict[str, hashlib._Hash] = {}
    for cid, tix, text in zip(turns.column("conv_id").to_pylist(),
                              turns.column("turn_idx").to_pylist(),
                              turns.column("extracted_text").to_pylist()):
        td = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        digests.setdefault(cid, hashlib.sha256()).update(
            f"{tix}:{td}\n".encode())
    if got.column("conv_text_sha256").to_pylist() != [
            digests[c].hexdigest() for c in got.column("conv_id").to_pylist()]:
        bad.append("conv_text_sha256 differs")
    return bad

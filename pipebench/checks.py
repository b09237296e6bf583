"""Checks of the report bundles the benchmark's runs write.

- ``recomputed_tables``: the 16 table CSVs as ``tools/regen_golden.py``
  rebuilds them from the world's raw files, with its own grouping,
  counting and aggregation code;
- ``table_mismatches``: which CSVs of a bundle differ from those bytes;
- ``property_problems``: invariants every bundle must hold;
- ``bundle_digest``: one hash over every file of a bundle, so later runs
  can be compared byte for byte with the checked one;
- ``probe_problems``: the deep-chain probe's partition against the
  generator's own.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
from collections import defaultdict
from pathlib import Path

from worlds import PROBE_CHAIN_POSTS, World

TABLES = 16
# Each distribution cell is printed to 4 decimals, so a column of four
# bins may miss 1 by up to 4 * 0.00005.
ROUNDING = 4 * 0.00005 + 1e-9


def recomputed_tables(checkout: Path, world: World) -> dict[str, bytes]:
    """CSV bytes of every table, recomputed by ``tools/regen_golden.py``."""
    spec = importlib.util.spec_from_file_location(
        "regen_golden", checkout / "tools" / "regen_golden.py"
    )
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    regen.DATA = world.root
    regen.RESPONSES = world.fixtures
    topics, posts = regen.load_corpus_raw()
    refs = json.loads(world.refs.read_text(encoding="utf-8"))
    tables = regen.build_tables(topics, posts, refs)
    return {
        f"{name}.csv": ("\n".join([",".join(header)] + [",".join(row) for row in rows]) + "\n")
        .encode("utf-8")
        for name, (header, rows) in tables.items()
    }


def table_mismatches(out_dir: Path, expected: dict[str, bytes]) -> list[str]:
    problems = []
    if len(expected) != TABLES:
        problems.append(f"recompute produced {len(expected)} tables, expected {TABLES}")
    for name in sorted(expected):
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing from the bundle")
        elif path.read_bytes() != expected[name]:
            problems.append(f"{name}: differs from the independent recompute")
    return problems


def _rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def property_problems(out_dir: Path, world: World) -> list[str]:
    problems = []
    for kind in ("all", "html", "non_html"):
        columns = defaultdict(list)
        for row in _rows(out_dir / f"distribution_{kind}.csv"):
            columns[(row["source"], row["class"])].append(row["probability"])
        for key, values in columns.items():
            if all(v == "NA" for v in values):
                continue
            if "NA" in values or abs(sum(map(float, values)) - 1.0) > ROUNDING:
                problems.append(f"distribution_{kind} column {key} does not sum to 1: {values}")
    for name in ("precision_all", "precision_html", "precision_non_html",
                 "relevance_by_k_all", "relevance_by_k_html", "relevance_by_k_non_html"):
        for row in _rows(out_dir / f"{name}.csv"):
            value = row["avg_precision"]
            if value != "NA" and not 0.0 <= float(value) <= 1.0:
                problems.append(f"{name}: precision {value} outside [0, 1]")
    counts = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))["counts"]
    if counts.get("posts") != world.posts or counts.get("topics") != world.topics:
        problems.append(
            f"manifest counts {counts} do not match the generator's "
            f"{world.posts} posts and {world.topics} topics"
        )
    return problems


def bundle_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def probe_problems(out_dir: Path) -> list[str]:
    """One P1A1 group of 1 post, one PnA1 group of the whole chain, no PnAn."""
    found = sorted(
        (row["post_class"], row["group_count"], row["post_count"])
        for row in _rows(out_dir / "partition.csv")
    )
    wanted = [("P1A1", "1", "1"), ("PnA1", "1", str(PROBE_CHAIN_POSTS))]
    return [] if found == wanted else [f"probe partition {found}, expected {wanted}"]

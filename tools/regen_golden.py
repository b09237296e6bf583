#!/usr/bin/env python3
"""Recompute the 16 report tables of a corpus without the pipeline.

``reference_tables`` is the independent side of every end-to-end check:
the golden CSVs under ``tests/data/golden/``, the tier-1 cross-checks
against ``seedsmith run`` and the benchmark's correctness gate. It reads
the raw corpus records, the refs mapping and the ``{sha256}.response``
fixture files itself, and rebuilds every table with its own grouping,
counting and aggregation code (stack-walked threads, set arithmetic,
stdlib quantiles).

Every page is read through one reader, the ``html.parser`` tree of
``tests/oracles.py`` (``reference_parse_html``): main text from
``reference_digest``, reference lists from
``reference_extract_references``, permalink targets from
``reference_target_links``, the publication-date chain from
``reference_publication_date`` and terms from ``reference_token_counts``.
From ``seedsmith`` it imports only the URI grammar (``canonicalize``,
``extract_uris``, ``intra_site_source``), ``STOPWORDS`` and the
``FetchResult`` record the date chain takes.

It takes the output-shaping flags of ``run`` as keyword arguments of
the same names: ``threshold``, ``dist_mode``, ``reference_source``,
``mc_exclude_root``, ``global_dedup``, ``depth_limit`` and the three
``only_*`` filters. Its envelope, inside which it must give ``run``'s
bytes:

- fixtures never redirect, every URI that a post, a permalink page or a
  refs entry reaches answers 200, and every topic has a refs entry;
- ``--fetch-kinds`` is not modelled: a seed's kind is its path
  extension, and non-HTML links end in .pdf, .xlsx or .mp4 (on the
  bundled corpus the flag changes none of the 16 tables);
- every post is a SERP root or a reply in its parent's topic, source
  and vertical;
- a ``--replies`` run is modelled as ``posts`` holding the whole replies
  file, with a reply limit that cuts nothing;
- ids and URIs hold no comma or quote, and ``retrieved_at`` is midnight
  UTC (ages are counted in whole days).

``python tools/regen_golden.py`` rewrites ``tests/data/golden/`` from the
bundled corpus at ``run``'s defaults; review the output and commit it.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import urlsplit

ROOT = Path(__file__).resolve().parents[1]
ORACLES = ROOT / "tests" / "oracles.py"
if not ORACLES.is_file():  # a checkout without tests/ cannot recompute, so say which file is missing
    sys.exit(f"error: {ORACLES} not found: the recompute reads every page through its oracles")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ORACLES.parent))

from oracles import (
    days_from_civil,
    quantiles_inclusive,
    reference_digest,
    reference_extract_references,
    reference_parse_html,
    reference_publication_date,
    reference_target_links,
    reference_token_counts,
)
from seedsmith.corpus.fetch import FetchResult
from seedsmith.extraction import canonicalize, extract_uris, intra_site_source
from seedsmith.stopwords import STOPWORDS

DATA = ROOT / "tests" / "data"
RESPONSES = DATA / "responses"
GOLDEN = DATA / "golden"

KINDS = (("all", None), ("html", "html"), ("non_html", "non_html"))
CLASSES = ("P1A1", "PnA1", "PnAn")  # partition classes, in sorted order
SCOPES = ("P1A1", "PnA1", "PnAn", "MC", "All")
BINS = ("1", "2", "3-4", "5+")
NON_HTML_EXT = {".pdf", ".xlsx", ".mp4"}  # extensions present in the fixtures
DAYS_PER_YEAR = 365.25


# -- raw files ------------------------------------------------------------


class Pages:
    """The fixtures under one directory, each read and parsed when asked
    for. A page's permalink targets and date are kept; its body, tree
    and text are not."""

    def __init__(self, fixtures):
        self.fixtures = fixtures
        self.targets, self.dates = {}, {}

    def fetch(self, uri):
        """A fixture file as a FetchResult, parsed without the package's
        transport."""
        path = self.fixtures / (hashlib.sha256(uri.encode()).hexdigest() + ".response")
        head, body = path.read_bytes().split(b"\r\n\r\n", 1)
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        assert status == 200, f"{uri}: status {status} is outside the envelope"
        headers = {}
        for line in lines[1:]:
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        media_type = (headers.get("content-type") or "").split(";")[0] or None
        return FetchResult(uri, uri, status, media_type, headers, body,
                           datetime(2018, 11, 6, tzinfo=timezone.utc))

    def text(self, uri):
        return reference_digest(self.fetch(uri).body, tree=reference_parse_html).text

    def links(self, uri):
        if uri not in self.targets:
            self.targets[uri] = reference_target_links(self.fetch(uri).body)
        return self.targets[uri]

    def date(self, uri):
        """(publication date, chain step) or None."""
        if uri not in self.dates:
            self.dates[uri] = reference_publication_date(self.fetch(uri))
        return self.dates[uri]


def read_corpus(path):
    """(topics, posts) of a corpus JSONL file, as raw records."""
    posts = []
    topics = []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["kind"] == "topics":
                topics = record["topics"]
            else:
                posts.append(record)
    return topics, posts


def load_corpus_raw():
    """(topics, posts) of the corpus under ``DATA``, read when called."""
    return read_corpus(DATA / "corpus.jsonl")


# -- segmentation -------------------------------------------------------------


def order_key(post):
    return (post.get("created_at") or "", post["id"])


def preorder(root, children):
    out = []
    stack = [root]
    while stack:
        post = stack.pop()
        out.append(post)
        stack.extend(reversed(children[post["id"]]))
    return out


def classify(root, children, mc_exclude_root):
    """Groups of one tree as (class, [posts]) in production emission
    order: P1A1, each maximal root-author path depth first, then PnAn."""
    groups = [("P1A1", [root])]
    author = root["author"]
    paths = [[root]]
    while paths:
        path = paths.pop()
        nxt = [k for k in children[path[-1]["id"]] if k["author"] == author]
        paths.extend(path + [kid] for kid in reversed(nxt))
        if not nxt and len(path) >= 2:
            groups.append(("PnA1", path[1:] if mc_exclude_root else path))
    members = preorder(root, children)
    if len(members) >= 2 and len({m["author"] for m in members}) >= 2:
        groups.append(("PnAn", members[1:] if mc_exclude_root else members))
    return groups


def in_class(cls, label):
    """Whether a cell of partition class ``cls`` counts towards the report
    class or scope ``label``: its own, MC for PnA1 and PnAn, and All."""
    return label in (cls, "All") or (label == "MC" and cls in ("PnA1", "PnAn"))


# -- assembly -----------------------------------------------------------


def substitute(uri, pages, depth_limit, depth=1, seen=None):
    """Replace an intra-platform post URI by its target's outbound links."""
    seen = seen if seen is not None else {uri}
    out = []
    for href in pages.links(uri):
        canon = canonicalize(href)
        if intra_site_source(canon) and depth < depth_limit:
            if canon not in seen:
                seen.add(canon)
                out.extend(substitute(canon, pages, depth_limit, depth + 1, seen))
        else:
            out.append(canon)
    return out


def kind_of(canonical):
    path = urlsplit(canonical).path
    dot = path.rfind(".")
    ext = path[dot:].lower() if dot >= 0 else ""
    return "non_html" if ext in NON_HTML_EXT else "html"


class Seed:
    def __init__(self, canonical, post):
        self.canonical = canonical
        self.kind = kind_of(canonical)
        self.hostname = urlsplit(canonical).hostname
        self.post = post


def assemble(posts, pages, mc_exclude_root, depth_limit, global_dedup):
    """Per cell: its groups, deduped seeds and per-post seed stream,
    mirroring the pipeline's first-occurrence dedup (per cell, or across
    the cells in sorted order) but recomputed from scratch."""
    children = defaultdict(list)
    for p in posts:
        if p.get("parent_id"):
            children[p["parent_id"]].append(p)
    for kids in children.values():
        kids.sort(key=order_key)
    cells = defaultdict(lambda: {"groups": [], "seeds": [], "stream": []})
    for root in sorted((p for p in posts if p.get("serp_visible")), key=order_key):
        for cls, members in classify(root, children, mc_exclude_root):
            cells[(root["topic_id"], root["source"], root["vertical"], cls)]["groups"].append(members)
    seen = set()
    for key in sorted(cells):
        cell = cells[key]
        if not global_dedup:
            seen = set()
        post_seen = defaultdict(set)
        for members in cell["groups"]:
            for post in members:
                record = SimpleNamespace(raw_links=tuple(post.get("raw_links", ())),
                                         text=post.get("text", ""))
                for raw in extract_uris(record):
                    canon = canonicalize(raw)
                    targets = (substitute(canon, pages, depth_limit)
                               if intra_site_source(canon) else [canon])
                    for target in targets:
                        if target in post_seen[post["id"]]:
                            continue
                        post_seen[post["id"]].add(target)
                        seed = Seed(target, post)
                        cell["stream"].append(seed)
                        if target not in seen:
                            seen.add(target)
                            cell["seeds"].append(seed)
    return dict(cells)


# -- judgments ----------------------------------------------------------------


def term_vector(texts):
    """Term frequency over total frequency, in first-seen term order."""
    counts = {}
    for text in texts:
        for term, n in reference_token_counts(text, STOPWORDS, 2).items():
            counts[term] = counts.get(term, 0) + n
    total = sum(counts.values())
    return {t: n / total for t, n in counts.items()}


def cosine(a, b):
    """Cosine of two term vectors, summed over the smaller one in its term
    order, then over each vector's weights, as the package sums it."""
    if len(b) < len(a):
        a, b = b, a
    dot = 0.0
    for term, weight in a.items():
        dot += weight * b.get(term, 0.0)
    if not dot:
        return 0.0
    norm_a = norm_b = 0.0
    for weight in a.values():
        norm_a += weight * weight
    for weight in b.values():
        norm_b += weight * weight
    return dot / (math.sqrt(norm_a) * math.sqrt(norm_b))


def build_golds(refs, pages):
    golds = {}
    for topic_id in sorted(refs):
        entry = refs[topic_id]
        if isinstance(entry, str):
            body = pages.fetch(entry).body
            entry = reference_extract_references(body, entry, tree=reference_parse_html)
        golds[topic_id] = term_vector(pages.text(uri) for uri in entry)
    return golds


def observations(cells, relevant):
    """Cell key -> one {kind: (k, precision)} per post with a seed, over
    the post's own seed stream, in first-seen post order."""
    obs = {}
    for key in sorted(cells):
        by_post = defaultdict(list)
        for seed in cells[key]["stream"]:
            by_post[seed.post["id"]].append(seed)
        obs[key] = []
        for seeds in by_post.values():
            by_kind = {}
            for kind_name, kind in KINDS:
                subset = [s for s in seeds if kind is None or s.kind == kind]
                if subset:
                    by_kind[kind_name] = (len(subset), sum(map(relevant, subset)) / len(subset))
            obs[key].append(by_kind)
    return obs


# -- table construction ----------------------------------------------------


def fmt(x):
    if x is None:
        return "NA"
    if isinstance(x, float):
        return f"{x:.4f}"
    return str(x)


def k_bin(k):
    return "1" if k == 1 else "2" if k == 2 else "3-4" if k <= 4 else "5+"


def mean_cells(values):
    """The average and count cells of a list of precisions."""
    return [fmt(sum(values) / len(values)), str(len(values))] if values else ["NA", "0"]


def reference_tables(posts, refs, fixtures, *, threshold=0.25, dist_mode="normalized",
                     reference_source="google", mc_exclude_root=False, global_dedup=False,
                     depth_limit=3, only_topics=(), only_sources=(), only_verticals=()):
    """The 16 tables, {name: (header, rows)}, that ``seedsmith run`` writes
    for ``posts`` (raw corpus records), ``refs`` (the refs file's mapping)
    and the fixture directory ``fixtures``, with the flags of the same
    names."""
    filters = (("topic_id", only_topics), ("source", only_sources), ("vertical", only_verticals))
    posts = [p for p in posts if all(not only or p[name] in only for name, only in filters)]
    pages = Pages(fixtures)
    cells = assemble(posts, pages, mc_exclude_root, depth_limit, global_dedup)
    golds = build_golds(refs, pages)

    judged = {}  # (topic, page) -> whether the page is relevant to the topic

    def relevant(seed):
        topic = seed.post["topic_id"]
        if seed.kind != "html":
            return cosine(term_vector([seed.post.get("text", "")]), golds[topic]) > threshold
        if (topic, seed.canonical) not in judged:
            vector = term_vector([pages.text(seed.canonical)])
            judged[topic, seed.canonical] = cosine(vector, golds[topic]) > threshold
        return judged[topic, seed.canonical]

    obs = observations(cells, relevant)
    sources = sorted({k[1] for k in cells})
    row_keys = sorted({(*key[:3], label) for key in cells
                       for label in (*CLASSES, "MC") if in_class(key[3], label)})

    def members(row_key):
        return [m for m in ((*row_key[:3], c) for c in CLASSES)
                if m in cells and in_class(m[3], row_key[3])]

    row_seeds = defaultdict(list)  # row key -> member cells' seeds, first occurrence winning
    for row_key in row_keys:
        seen = set()
        for seed in (s for m in members(row_key) for s in cells[m]["seeds"]):
            if seed.canonical not in seen:
                seen.add(seed.canonical)
                row_seeds[row_key].append(seed)
    tables = {}

    header = ["topic", "source", "vertical", "post_class", "group_count", "post_count"]
    for name, merge_mc in (("partition", False), ("partition_mc", True)):
        counts = defaultdict(lambda: [0, 0])
        for key, cell in cells.items():
            label = "MC" if merge_mc and in_class(key[3], "MC") else key[3]
            slot = counts[(*key[:3], label)]
            slot[0] += len(cell["groups"])
            slot[1] += sum(len(g) for g in cell["groups"])
        tables[name] = (header, [[*k, str(n), str(m)] for k, (n, m) in sorted(counts.items())])

    tables["seeds"] = (
        ["topic", "source", "vertical", "post_class", "canonical_uri", "kind",
         "hostname", "post_id", "retrieved_at"],
        [[*key, s.canonical, s.kind, s.hostname, s.post["id"], s.post["retrieved_at"]]
         for key in sorted(cells) for s in cells[key]["seeds"]],
    )

    for kind_name, _kind in KINDS:
        dist_rows = []
        by_k_rows = []
        for source in sources:
            for scope in SCOPES:
                bins_by_topic = defaultdict(list)
                precisions = defaultdict(list)
                for key in obs:
                    if key[1] != source or not in_class(key[3], scope):
                        continue
                    for by_kind in obs[key]:
                        if kind_name in by_kind:
                            k, precision = by_kind[kind_name]
                            bins_by_topic[key[0]].append(k_bin(k))
                            precisions[k_bin(k)].append(precision)
                for label in BINS:
                    if not bins_by_topic:
                        probability = None
                    elif dist_mode == "literal":
                        probability = sum(bins_by_topic[t].count(label) / len(bins_by_topic[t])
                                          for t in sorted(bins_by_topic))
                    else:
                        probability = (sum(b.count(label) for b in bins_by_topic.values())
                                       / sum(map(len, bins_by_topic.values())))
                    dist_rows.append([label, source, scope, fmt(probability), dist_mode])
                    by_k_rows.append([label, source, scope, *mean_cells(precisions[label]),
                                      kind_name])
        tables[f"distribution_{kind_name}"] = (
            ["bin", "source", "class", "probability", "mode"], dist_rows
        )
        tables[f"relevance_by_k_{kind_name}"] = (
            ["bin", "source", "class", "avg_precision", "post_count", "kind"], by_k_rows
        )

    for kind_name, _kind in KINDS:
        rows = []
        for row_key in row_keys:
            values = [by_kind[kind_name][1] for m in members(row_key) for by_kind in obs[m]
                      if kind_name in by_kind]
            rows.append([*row_key, *mean_cells(values), kind_name])
        tables[f"precision_{kind_name}"] = (
            ["topic", "source", "vertical", "class", "avg_precision", "post_count", "kind"],
            rows,
        )

    # ages of relevant HTML seeds
    age_rows = []
    ecdf_rows = []
    for row_key in row_keys:
        ages = []
        for seed in row_seeds[row_key]:
            estimate = pages.date(seed.canonical) if seed.kind == "html" and relevant(seed) else None
            if estimate is None:
                continue
            pub = estimate[0]
            retrieved = datetime.fromisoformat(seed.post["retrieved_at"].replace("Z", "+00:00"))
            days = days_from_civil(retrieved.year, retrieved.month, retrieved.day) - \
                days_from_civil(pub.year, pub.month, pub.day)
            if days >= 0:
                ages.append(days / DAYS_PER_YEAR)
        if not ages:
            age_rows.append([*row_key, "NA", "NA", "NA", "NA", "NA"])
            continue
        ages.sort()
        age_rows.append([*row_key, *map(fmt, (ages[0], *quantiles_inclusive(ages), ages[-1]))])
        n = len(ages)
        for i, value in enumerate(ages, start=1):
            if i == n or ages[i] != value:
                ecdf_rows.append([*row_key, fmt(value), fmt(i / n)])
    tables["age"] = (
        ["topic", "source", "vertical", "class", "min", "q1", "median", "q3", "max"],
        age_rows,
    )
    tables["age_ecdf"] = (
        ["topic", "source", "vertical", "class", "age_years", "fraction"], ecdf_rows
    )

    rows = []
    for row_key in row_keys:
        for kind_name, kind in KINDS:
            hosts = [s.hostname for s in row_seeds[row_key] if kind is None or s.kind == kind]
            distinct = len(set(hosts))
            value = None if len(hosts) < 2 else (distinct - 1) / (len(hosts) - 1)
            rows.append([*row_key, kind_name, fmt(value), str(len(hosts)), str(distinct)])
    tables["diversity"] = (
        ["topic", "source", "vertical", "class", "kind", "diversity", "seed_count", "host_count"],
        rows,
    )

    reference = defaultdict(set)
    for key in cells:
        if key[1] == reference_source:
            reference[key[0]].update(s.canonical for s in cells[key]["seeds"])
    rows = []
    for row_key in row_keys:
        topic, source = row_key[:2]
        if source == reference_source or topic not in reference:
            continue
        candidate = {s.canonical for s in row_seeds[row_key]}
        value = None if not candidate else len(reference[topic] & candidate) / len(candidate)
        rows.append([*row_key, fmt(value), str(len(candidate)), str(len(reference[topic]))])
    tables["overlap"] = (
        ["topic", "source", "vertical", "class", "overlap", "candidate_count", "reference_count"],
        rows,
    )
    return tables


def build_tables(topics, posts, refs):
    """``reference_tables`` at ``run``'s defaults over the fixtures under
    ``RESPONSES``, read when called (the benchmark sets it per world)."""
    return reference_tables(posts, refs, RESPONSES)


def csv_bytes(tables):
    """Each table as the bytes of the CSV file ``run`` writes for it, by
    file name."""
    return {
        f"{name}.csv": ("\n".join(",".join(line) for line in [header, *rows]) + "\n").encode("utf-8")
        for name, (header, rows) in tables.items()
    }


def main():
    _topics, posts = load_corpus_raw()
    refs = json.loads((DATA / "refs.json").read_text(encoding="utf-8"))
    files = csv_bytes(reference_tables(posts, refs, RESPONSES))
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.glob("*.csv"):
        old.unlink()
    for name in sorted(files):
        (GOLDEN / name).write_bytes(files[name])
        print(f"{name}: {len(files[name].splitlines()) - 1} rows")


if __name__ == "__main__":
    main()

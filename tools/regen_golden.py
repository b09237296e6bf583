#!/usr/bin/env python3
"""Recompute the golden report CSVs for the bundled fixture corpus.

This is the independent side of the end-to-end check: it reads the raw
fixture files itself and rebuilds every report table with its own
grouping, counting, and aggregation code (path-enumeration classifier,
stdlib quantiles, set arithmetic). Only low-level primitives that have
their own hand-computed tests are imported from the package:
canonicalize/extract grammar, the page digest (boilerplate-stripped
text and metadata date), token counting, cosine, and the
publication-date estimator chain.

Run once, review the output under tests/data/golden/, commit. The
acceptance suite compares pipeline output byte-for-byte against these
files.
"""

from __future__ import annotations

import hashlib
import json
import re
import statistics
import sys
from collections import defaultdict
from datetime import datetime, timezone
from pathlib import Path
from urllib.parse import urlsplit

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import days_from_civil
from seedsmith.analytics import estimate_publication_date
from seedsmith.corpus.fetch import FetchResult
from seedsmith.extraction import canonicalize, extract_uris, intra_site_source
from seedsmith.pages import digest_page
from seedsmith.stopwords import STOPWORDS
from seedsmith.textkernel import sparse_cosine, token_counts

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"
RESPONSES = DATA / "responses"
GOLDEN = DATA / "golden"

THRESHOLD = 0.25
REFERENCE_SOURCE = "google"
KINDS = (("all", None), ("html", "html"), ("non_html", "non_html"))
SCOPES = ("P1A1", "PnA1", "PnAn", "MC", "All")
BINS = ("1", "2", "3-4", "5+")
NON_HTML_EXT = {".pdf", ".xlsx", ".mp4"}  # extensions present in the fixtures
DAYS_PER_YEAR = 365.25


# -- raw fixture access ------------------------------------------------


def read_fixture(uri):
    """Parse a {sha256}.response file without the package's transport."""
    path = RESPONSES / (hashlib.sha256(uri.encode()).hexdigest() + ".response")
    raw = path.read_bytes()
    head, body = raw.split(b"\r\n\r\n", 1)
    lines = head.split(b"\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body


def fetch_result(uri):
    status, headers, body = read_fixture(uri)
    return FetchResult(
        request_uri=uri,
        final_uri=uri,
        status=status,
        media_type=(headers.get("content-type") or "").split(";")[0] or None,
        headers=headers,
        body=body,
        fetched_at=datetime(2018, 11, 6, tzinfo=timezone.utc),
    )


def page_text(uri):
    _status, _headers, body = read_fixture(uri)
    digest = digest_page(body)
    if digest.text_error is not None:
        raise ValueError(f"{uri}: {digest.text_error}")
    return digest.text


def load_corpus_raw():
    posts = []
    topics = []
    with (DATA / "corpus.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if record["kind"] == "topics":
                topics = record["topics"]
            else:
                posts.append(record)
    return topics, posts


# -- segmentation by path enumeration ----------------------------------


def order_key(post):
    return (post.get("created_at") or "", post["id"])


def build_trees(posts):
    """Per (topic, source, vertical): list of (root, members) trees in
    root (created_at, id) order; children ordered the same way."""
    by_cell = defaultdict(list)
    for p in posts:
        by_cell[(p["topic_id"], p["source"], p["vertical"])].append(p)
    trees = []
    for cell in sorted(by_cell):
        cell_posts = by_cell[cell]
        children = defaultdict(list)
        for p in cell_posts:
            if p.get("parent_id"):
                children[p["parent_id"]].append(p)
        for kids in children.values():
            kids.sort(key=order_key)
        roots = sorted((p for p in cell_posts if p.get("serp_visible")), key=order_key)
        for root in roots:
            trees.append((cell, root, children))
    trees.sort(key=lambda t: order_key(t[1]))
    return trees


def preorder(root, children):
    out = [root]
    for kid in children[root["id"]]:
        out.extend(preorder(kid, children))
    return out


def classify(root, children):
    """Groups of one tree as (class, [posts]) in production emission order."""
    groups = [("P1A1", [root])]
    author = root["author"]

    chains = []

    def grow(post, prefix):
        nxt = [k for k in children[post["id"]] if k["author"] == author]
        if not nxt:
            if len(prefix) >= 2:
                chains.append(prefix)
            return
        for kid in nxt:
            grow(kid, prefix + [kid])

    grow(root, [root])
    for chain in chains:
        groups.append(("PnA1", chain))

    members = preorder(root, children)
    if len(members) >= 2 and len({m["author"] for m in members}) >= 2:
        groups.append(("PnAn", members))
    return groups


# -- assembly -----------------------------------------------------------


_TWEET_HREF_RE = re.compile(r'href="([^"]+)"')


def substitute(uri, depth=1, seen=None):
    """Replace an intra-platform post URI by its target's outbound links."""
    seen = seen if seen is not None else {uri}
    status, _headers, body = read_fixture(uri)
    assert status == 200
    out = []
    for href in _TWEET_HREF_RE.findall(body.decode("utf-8")):
        if not href.startswith(("http://", "https://")):
            continue
        canon = canonicalize(href)
        if intra_site_source(canon) and depth < 3:
            if canon in seen:
                continue
            seen.add(canon)
            out.extend(substitute(canon, depth + 1, seen))
        else:
            out.append(canon)
    return out


def kind_of(canonical):
    path = urlsplit(canonical).path
    dot = path.rfind(".")
    ext = path[dot:].lower() if dot >= 0 else ""
    return "non_html" if ext in NON_HTML_EXT else "html"


class Seed:
    def __init__(self, canonical, post, cell_class):
        self.canonical = canonical
        self.kind = kind_of(canonical)
        self.hostname = urlsplit(canonical).hostname
        self.post = post
        self.cell_class = cell_class


def assemble(trees):
    """Per cell: (deduped seeds, per-post stream), mirroring the pipeline's
    first-occurrence dedup but recomputed from scratch."""
    cells = defaultdict(lambda: {"groups": [], "seeds": [], "stream": []})
    for (topic, source, vertical), root, children in trees:
        for cls, members in classify(root, children):
            key = (topic, source, vertical, cls)
            cells[key]["groups"].append(members)
    for key in sorted(cells):
        cell = cells[key]
        seen = set()
        post_seen = defaultdict(set)
        for members in cell["groups"]:
            for post in members:
                raws = extract_uris(FakePost(post))
                for raw in raws:
                    canon = canonicalize(raw)
                    targets = substitute(canon) if intra_site_source(canon) else [canon]
                    for target in targets:
                        if target in post_seen[post["id"]]:
                            continue
                        post_seen[post["id"]].add(target)
                        seed = Seed(target, post, key[3])
                        cell["stream"].append(seed)
                        if target in seen:
                            continue
                        seen.add(target)
                        cell["seeds"].append(seed)
    return cells


class FakePost:
    """Adapter so the package's extract_uris grammar reads raw records."""

    def __init__(self, record):
        self.raw_links = tuple(record.get("raw_links", ()))
        self.text = record.get("text", "")


# -- gold standards and judgments -----------------------------------------


def gold_vector(ref_texts):
    counts = {}
    for text in ref_texts:
        for term, n in token_counts(text, STOPWORDS, 2).items():
            counts[term] = counts.get(term, 0) + n
    total = sum(counts.values())
    return {t: n / total for t, n in counts.items()}


def build_golds(refs):
    golds = {}
    for topic_id in sorted(refs):
        entry = refs[topic_id]
        if isinstance(entry, str):
            _status, _headers, body = read_fixture(entry)
            html = body.decode("utf-8")
            section = html.split('<div class="references">')[1].split("</div>")[0]
            page_host = urlsplit(entry).hostname
            uris = [
                h
                for h in _TWEET_HREF_RE.findall(section)
                if h.startswith("http") and urlsplit(h).hostname != page_host
            ]
        else:
            uris = list(entry)
        golds[topic_id] = gold_vector([page_text(u) for u in uris])
    return golds


def doc_vector(text):
    counts = token_counts(text, STOPWORDS, 2)
    total = sum(counts.values())
    if not total:
        return {}
    return {t: n / total for t, n in counts.items()}


class Judge:
    def __init__(self, golds):
        self.golds = golds
        self._page_memo = {}

    def relevant(self, seed):
        gold = self.golds[seed.post["topic_id"]]
        if seed.kind == "html":
            if seed.canonical not in self._page_memo:
                self._page_memo[seed.canonical] = doc_vector(page_text(seed.canonical))
            vector = self._page_memo[seed.canonical]
        else:
            vector = doc_vector(seed.post.get("text", ""))
        if not vector:
            return False
        return sparse_cosine(vector, gold) > THRESHOLD


# -- table construction ----------------------------------------------------


def fmt(x):
    if x is None:
        return "NA"
    if isinstance(x, float):
        return f"{x:.4f}"
    return str(x)


def row_keys_of(cells):
    keys = set()
    for (topic, source, vertical, cls) in cells:
        keys.add((topic, source, vertical, cls))
        if cls in ("PnA1", "PnAn"):
            keys.add((topic, source, vertical, "MC"))
    return sorted(keys)


def seeds_for_row(cells, row_key):
    topic, source, vertical, cls = row_key
    member_classes = ("PnA1", "PnAn") if cls == "MC" else (cls,)
    seen = set()
    out = []
    for member in member_classes:
        key = (topic, source, vertical, member)
        if key not in cells:
            continue
        for seed in cells[key]["seeds"]:
            if seed.canonical in seen:
                continue
            seen.add(seed.canonical)
            out.append(seed)
    return out


def stream_by_post(cells, key, kind):
    grouped = defaultdict(list)
    if key in cells:
        for seed in cells[key]["stream"]:
            if kind is None or seed.kind == kind:
                grouped[seed.post["id"]].append(seed)
    return grouped


def observations(cells, judge):
    """(cell key, post id) -> {kind: (k, precision)} over the post stream."""
    obs = defaultdict(dict)
    for key in sorted(cells):
        for kind_name, kind in KINDS:
            for post_id, seeds in stream_by_post(cells, key, kind).items():
                rel = sum(1 for s in seeds if judge.relevant(s))
                obs[(key, post_id)][kind_name] = (len(seeds), rel / len(seeds))
    return obs


def k_bin(k):
    return "1" if k == 1 else "2" if k == 2 else "3-4" if k <= 4 else "5+"


def build_tables(topics, posts, refs):
    trees = build_trees(posts)
    cells = assemble(trees)
    golds = build_golds(refs)
    judge = Judge(golds)
    obs = observations(cells, judge)
    sources = sorted({k[1] for k in cells})
    row_keys = row_keys_of(cells)
    tables = {}

    # partition / partition_mc
    def partition_rows(merge_mc):
        counts = defaultdict(lambda: [0, 0])
        for key in cells:
            topic, source, vertical, cls = key
            if merge_mc and cls in ("PnA1", "PnAn"):
                cls = "MC"
            slot = counts[(topic, source, vertical, cls)]
            slot[0] += len(cells[key]["groups"])
            slot[1] += sum(len(g) for g in cells[key]["groups"])
        return [
            [k[0], k[1], k[2], k[3], str(v[0]), str(v[1])]
            for k, v in sorted(counts.items())
        ]

    header = ["topic", "source", "vertical", "post_class", "group_count", "post_count"]
    tables["partition"] = (header, partition_rows(False))
    tables["partition_mc"] = (header, partition_rows(True))

    # seeds
    rows = []
    for key in sorted(cells):
        for seed in cells[key]["seeds"]:
            rows.append(
                [key[0], key[1], key[2], key[3], seed.canonical, seed.kind,
                 seed.hostname, seed.post["id"], seed.post["retrieved_at"]]
            )
    tables["seeds"] = (
        ["topic", "source", "vertical", "post_class", "canonical_uri", "kind",
         "hostname", "post_id", "retrieved_at"],
        rows,
    )

    # distributions (normalized mode, the pipeline default)
    for kind_name, kind in KINDS:
        rows = []
        for source in sources:
            for scope in SCOPES:
                per_topic = defaultdict(list)
                for (key, post_id), by_kind in obs.items():
                    topic, cell_source, _v, cls = key
                    if cell_source != source:
                        continue
                    if scope == "MC" and cls not in ("PnA1", "PnAn"):
                        continue
                    if scope not in ("MC", "All") and cls != scope:
                        continue
                    if kind_name in by_kind:
                        per_topic[topic].append(by_kind[kind_name][0])
                pooled = sum(len(v) for v in per_topic.values())
                for bin_label in BINS:
                    if pooled == 0:
                        rows.append([bin_label, source, scope, "NA", "normalized"])
                        continue
                    n = sum(
                        sum(1 for k in ks if k_bin(k) == bin_label)
                        for ks in per_topic.values()
                    )
                    rows.append([bin_label, source, scope, fmt(n / pooled), "normalized"])
        tables[f"distribution_{kind_name}"] = (
            ["bin", "source", "class", "probability", "mode"], rows
        )

    # precision per row key
    for kind_name, kind in KINDS:
        rows = []
        for row_key in row_keys:
            topic, source, vertical, cls = row_key
            member_classes = ("PnA1", "PnAn") if cls == "MC" else (cls,)
            values = []
            for (key, post_id), by_kind in obs.items():
                if key[0] == topic and key[1] == source and key[2] == vertical \
                        and key[3] in member_classes and kind_name in by_kind:
                    values.append(by_kind[kind_name][1])
            if values:
                rows.append([topic, source, vertical, cls,
                             fmt(sum(values) / len(values)), str(len(values)), kind_name])
            else:
                rows.append([topic, source, vertical, cls, "NA", "0", kind_name])
        tables[f"precision_{kind_name}"] = (
            ["topic", "source", "vertical", "class", "avg_precision", "post_count", "kind"],
            rows,
        )

    # relevance by k
    for kind_name, kind in KINDS:
        rows = []
        for source in sources:
            for scope in SCOPES:
                bins = defaultdict(list)
                for (key, post_id), by_kind in obs.items():
                    _t, cell_source, _v, cls = key
                    if cell_source != source or kind_name not in by_kind:
                        continue
                    if scope == "MC" and cls not in ("PnA1", "PnAn"):
                        continue
                    if scope not in ("MC", "All") and cls != scope:
                        continue
                    k, precision = by_kind[kind_name]
                    bins[k_bin(k)].append(precision)
                for bin_label in BINS:
                    vals = bins.get(bin_label, [])
                    if vals:
                        rows.append([bin_label, source, scope,
                                     fmt(sum(vals) / len(vals)), str(len(vals)), kind_name])
                    else:
                        rows.append([bin_label, source, scope, "NA", "0", kind_name])
        tables[f"relevance_by_k_{kind_name}"] = (
            ["bin", "source", "class", "avg_precision", "post_count", "kind"], rows
        )

    # ages of relevant HTML seeds
    age_rows = []
    ecdf_rows = []
    for row_key in row_keys:
        ages = []
        for seed in seeds_for_row(cells, row_key):
            if seed.kind != "html" or not judge.relevant(seed):
                continue
            page = fetch_result(seed.canonical)
            estimate = estimate_publication_date(page, digest_page(page.body))
            if estimate is None:
                continue
            pub = estimate[0]
            retrieved = datetime.fromisoformat(
                seed.post["retrieved_at"].replace("Z", "+00:00")
            )
            days = days_from_civil(retrieved.year, retrieved.month, retrieved.day) - \
                days_from_civil(pub.year, pub.month, pub.day)
            if days < 0:
                continue
            ages.append(days / DAYS_PER_YEAR)
        topic, source, vertical, cls = row_key
        if not ages:
            age_rows.append([topic, source, vertical, cls, "NA", "NA", "NA", "NA", "NA"])
            continue
        ages.sort()
        if len(ages) == 1:
            q1 = median = q3 = ages[0]
        else:
            q1, median, q3 = statistics.quantiles(ages, n=4, method="inclusive")
        age_rows.append([topic, source, vertical, cls,
                         fmt(ages[0]), fmt(q1), fmt(median), fmt(q3), fmt(ages[-1])])
        n = len(ages)
        for i, value in enumerate(ages, start=1):
            if i == n or ages[i] != value:
                ecdf_rows.append([topic, source, vertical, cls, fmt(value), fmt(i / n)])
    tables["age"] = (
        ["topic", "source", "vertical", "class", "min", "q1", "median", "q3", "max"],
        age_rows,
    )
    tables["age_ecdf"] = (
        ["topic", "source", "vertical", "class", "age_years", "fraction"], ecdf_rows
    )

    # diversity
    rows = []
    for row_key in row_keys:
        seeds = seeds_for_row(cells, row_key)
        for kind_name, kind in KINDS:
            subset = [s for s in seeds if kind is None or s.kind == kind]
            hosts = [s.hostname for s in subset]
            distinct = len(sorted(set(hosts)))
            value = None if len(hosts) < 2 else (distinct - 1) / (len(hosts) - 1)
            rows.append([row_key[0], row_key[1], row_key[2], row_key[3], kind_name,
                         fmt(value), str(len(subset)), str(distinct)])
    tables["diversity"] = (
        ["topic", "source", "vertical", "class", "kind", "diversity", "seed_count", "host_count"],
        rows,
    )

    # overlap vs the google reference cells
    reference = defaultdict(set)
    for key in cells:
        if key[1] == REFERENCE_SOURCE:
            reference[key[0]].update(s.canonical for s in cells[key]["seeds"])
    rows = []
    for row_key in row_keys:
        topic, source, vertical, cls = row_key
        if source == REFERENCE_SOURCE or topic not in reference:
            continue
        candidate = {s.canonical for s in seeds_for_row(cells, row_key)}
        value = None if not candidate else len(reference[topic] & candidate) / len(candidate)
        rows.append([topic, source, vertical, cls, fmt(value),
                     str(len(candidate)), str(len(reference[topic]))])
    tables["overlap"] = (
        ["topic", "source", "vertical", "class", "overlap", "candidate_count", "reference_count"],
        rows,
    )
    return tables


def main():
    topics, posts = load_corpus_raw()
    refs = json.loads((DATA / "refs.json").read_text(encoding="utf-8"))
    tables = build_tables(topics, posts, refs)
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for old in GOLDEN.glob("*.csv"):
        old.unlink()
    for name in sorted(tables):
        header, rows = tables[name]
        lines = [",".join(header)] + [",".join(row) for row in rows]
        (GOLDEN / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{name}.csv: {len(rows)} rows")


if __name__ == "__main__":
    main()

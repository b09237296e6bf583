"""Report-bundle assembly and deterministic CSV/JSON emission.

All table rows are pre-formatted strings (floats to 4 decimals, absent
values as "NA"), so the CSV and JSON renderings carry identical values
and identical inputs yield byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import logging
import threading
from dataclasses import dataclass
from pathlib import Path

from . import __version__, textkernel
from .analytics import (
    DEFAULT_RELEVANCE_THRESHOLD,
    K_BINS,
    MODE_NORMALIZED,
    age_distribution,
    class_average_precision,
    conditional_relevance_by_k,
    digest_date_estimators,
    estimate_publication_date,
    hostname_diversity,
    judge_relevance,
    make_age_sample,
    serp_overlap,
    uri_count_distribution,
)
from .corpus.fetch import Fetcher
from .corpus.model import Corpus
from .extraction import HTML_KIND, NON_HTML_KIND, SEED_CSV_HEADER, seed_rows
from .goldstandard import GoldStandard
from .segmentation import MC, MC_MEMBER_CLASSES, partition_counts
from .stopwords import STOPWORDS_VERSION

log = logging.getLogger(__name__)

NA = "NA"
KIND_FILTERS = (("all", None), ("html", HTML_KIND), ("non_html", NON_HTML_KIND))
SCOPES = ("P1A1", "PnA1", "PnAn", "MC", "All")
DEFAULT_REFERENCE_SOURCE = "google"
PARTITION_HEADER = ("topic", "source", "vertical", "post_class", "group_count", "post_count")


def fmt(value) -> str:
    """Format one cell: floats to 4 decimals, None as NA."""
    if value is None:
        return NA
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def partition_rows(partition) -> list[list[str]]:
    return [list(map(fmt, row)) for row in partition_counts(partition)]


@dataclass
class ReportConfig:
    threshold: float = DEFAULT_RELEVANCE_THRESHOLD
    dist_mode: str = MODE_NORMALIZED
    reference_source: str = DEFAULT_REFERENCE_SOURCE
    mc_exclude_root: bool = False
    global_dedup: bool = False
    jobs: int = 1


class SeedTextProvider:
    """Supplies the text a seed is judged on.

    HTML seeds are judged on the main-content text of their dereferenced
    document, read from the fetcher's page digest; everything else on
    the text of the post that embedded the URI. A page that yields no
    text is warned about once per canonical URI.
    """

    def __init__(self, corpus: Corpus, fetcher: Fetcher, warnings=None):
        self.corpus = corpus
        self.fetcher = fetcher
        self.warnings = warnings
        self._warned: set[str] = set()
        self._warned_lock = threading.Lock()

    def __call__(self, seed) -> str:
        if seed.kind == HTML_KIND:
            return self.page_text(seed.canonical)
        post = self.corpus.posts.get(seed.provenance.post_id)
        return post.text if post else ""

    def page_text(self, uri: str) -> str:
        result = self.fetcher.dereference(uri)
        if result.failed or not result.ok:
            self._warn(uri, f"seed {uri} not fetchable ({result.status}); judged on empty text")
            return ""
        digest = self.fetcher.digest(result)
        if digest.text_error is not None:
            self._warn(uri, f"seed {uri} unusable as HTML: {digest.text_error}")
        return digest.text

    def _warn(self, uri, message):
        with self._warned_lock:
            if uri in self._warned:
                return
            self._warned.add(uri)
        log.warning(message)
        if self.warnings is not None:
            self.warnings.append(message)


class RelevanceIndex:
    """Memoized per-seed relevance judgments against per-topic golds."""

    def __init__(self, golds: dict[str, GoldStandard], text_provider, threshold):
        self.golds = golds
        self.text_provider = text_provider
        self.threshold = threshold
        self._memo = {}

    def judgment(self, seed):
        gold = self.golds.get(seed.provenance.topic_id)
        if gold is None:
            return None
        if seed.kind == HTML_KIND:
            key = (seed.provenance.topic_id, seed.canonical)
        else:
            # Non-HTML seeds are judged on the embedding post's text,
            # which differs per post.
            key = (seed.provenance.topic_id, seed.provenance.post_id, seed.canonical)
        if key not in self._memo:
            self._memo[key] = judge_relevance(
                [self.text_provider(seed)], gold, self.threshold, subject=seed.canonical
            )
        return self._memo[key]


@dataclass(frozen=True)
class PostObservation:
    """Seed counts and precisions of one post within one post-class cell."""

    topic: str
    source: str
    vertical: str
    post_class: str
    post_id: str
    k: dict  # kind name -> seed count (0 when none)
    precision: dict  # kind name -> float | None


def collect_observations(collections, judge: RelevanceIndex) -> list[PostObservation]:
    """One observation per post per cell, over each post's own seeds
    (``post_seeds``, not the collection-deduped ones), in sorted-cell,
    first-seen-post order."""
    observations = []
    for key in sorted(collections):
        topic, source, vertical, post_class = key
        by_post: dict[str, list] = {}
        for seed in collections[key].post_seeds:
            by_post.setdefault(seed.provenance.post_id, []).append(seed)
        for post_id, seeds in by_post.items():
            ks = {}
            precs = {}
            for kind_name, kind in KIND_FILTERS:
                subset = seeds if kind is None else [s for s in seeds if s.kind == kind]
                ks[kind_name] = len(subset)
                if not subset or judge.golds.get(topic) is None:
                    precs[kind_name] = None
                    continue
                judged = [judge.judgment(s) for s in subset]
                precs[kind_name] = sum(1 for j in judged if j and j.relevant) / len(subset)
            observations.append(
                PostObservation(topic, source, vertical, post_class, post_id, ks, precs)
            )
    return observations


def _row_classes(post_class: str) -> tuple[str, ...]:
    """The report classes a cell of ``post_class`` counts towards: its
    own, and MC when it is PnA1 or PnAn."""
    return (post_class, MC) if post_class in MC_MEMBER_CLASSES else (post_class,)


def group_by_scope(observations) -> dict:
    """(kind name, source, scope) -> the observations holding at least
    one seed of that kind, in ``collect_observations`` order.

    A post's scopes are its report classes (``_row_classes``) and All.
    Both the URI-count distributions and the per-k relevance view read
    this one grouping.
    """
    groups: dict = {}
    for o in observations:
        scopes = (*_row_classes(o.post_class), "All")
        for kind_name, _kind in KIND_FILTERS:
            if o.k[kind_name] >= 1:
                for scope in scopes:
                    groups.setdefault((kind_name, o.source, scope), []).append(o)
    return groups


@dataclass(frozen=True)
class RowIndex:
    """Every report row's member cells, deduped seeds and observations.

    Row keys are every partition cell plus one pooled MC row per
    (topic, source, vertical) that has a PnA1 or PnAn cell. Member cells
    are sorted; that order fixes the order in which seeds and
    observations pool, and with it every row's float summation order.
    """

    keys: list  # sorted row keys
    cells: dict  # row key -> sorted member cell keys
    seeds: dict  # row key -> seeds deduped by canonical URI, first occurrence winning
    observations: dict  # row key -> PostObservations in collect_observations order


def index_rows(collections, observations) -> RowIndex:
    """Group the cells, seeds and observations of every report row in one
    pass over each."""
    cells: dict = {}
    for key in sorted(collections):
        for label in _row_classes(key[3]):
            cells.setdefault((*key[:3], label), []).append(key)
    seeds = {}
    for row_key, members in cells.items():
        seen = set()
        row = []
        for key in members:
            for seed in collections[key].seeds:
                if seed.canonical not in seen:
                    seen.add(seed.canonical)
                    row.append(seed)
        seeds[row_key] = row
    grouped: dict = {row_key: [] for row_key in cells}
    for o in observations:
        for label in _row_classes(o.post_class):
            grouped[(o.topic, o.source, o.vertical, label)].append(o)
    return RowIndex(sorted(cells), cells, seeds, grouped)


def build_tables(
    corpus: Corpus,
    partition,
    mc_partition,
    collections,
    golds: dict[str, GoldStandard],
    fetcher: Fetcher,
    config: ReportConfig,
    warnings: list,
) -> dict:
    """All report tables as {name: {"header": [...], "rows": [[str]]}}."""
    provider = SeedTextProvider(corpus, fetcher, warnings)
    if config.jobs > 1:
        _prefetch_page_texts(provider, collections, config.jobs)
    judge = RelevanceIndex(golds, provider, config.threshold)
    observations = collect_observations(collections, judge)
    sources = sorted({key[1] for key in collections})
    rows_index = index_rows(collections, observations)
    tables = {}

    tables["partition"] = _table(PARTITION_HEADER, partition_rows(partition))
    tables["partition_mc"] = _table(PARTITION_HEADER, partition_rows(mc_partition))
    tables["seeds"] = _table(SEED_CSV_HEADER, [list(map(fmt, row)) for row in seed_rows(collections)])

    groups = group_by_scope(observations)
    for kind_name, _kind in KIND_FILTERS:
        distribution_rows = []
        by_k_rows = []
        for source in sources:
            for scope in SCOPES:
                group = groups.get((kind_name, source, scope), [])
                probabilities = uri_count_distribution(
                    [(o.topic, o.k[kind_name]) for o in group], config.dist_mode
                )
                by_bin = conditional_relevance_by_k(
                    (o.k[kind_name], o.precision[kind_name]) for o in group
                )
                for bin_label in K_BINS:
                    distribution_rows.append(
                        [bin_label, source, scope, fmt(probabilities.get(bin_label)),
                         config.dist_mode]
                    )
                    cell = by_bin[bin_label]
                    by_k_rows.append(
                        [bin_label, source, scope, fmt(cell.average), fmt(cell.post_count),
                         kind_name]
                    )
        tables[f"distribution_{kind_name}"] = _table(
            ("bin", "source", "class", "probability", "mode"), distribution_rows
        )
        tables[f"relevance_by_k_{kind_name}"] = _table(
            ("bin", "source", "class", "avg_precision", "post_count", "kind"), by_k_rows
        )

    for kind_name, kind in KIND_FILTERS:
        rows = []
        for row_key in rows_index.keys:
            obs = [o for o in rows_index.observations[row_key] if o.k[kind_name] >= 1]
            summary = class_average_precision(o.precision[kind_name] for o in obs)
            topic, source, vertical, post_class = row_key
            if summary is None:
                rows.append([topic, source, vertical, post_class, NA, "0", kind_name])
            else:
                rows.append(
                    [topic, source, vertical, post_class,
                     fmt(summary.average), fmt(summary.post_count), kind_name]
                )
        tables[f"precision_{kind_name}"] = _table(
            ("topic", "source", "vertical", "class", "avg_precision", "post_count", "kind"),
            rows,
        )

    tables["age"], tables["age_ecdf"] = _age_tables(rows_index, judge, provider, warnings)
    tables["diversity"] = _diversity_table(rows_index)
    tables["overlap"] = _overlap_table(collections, rows_index, config.reference_source)
    return tables


def _prefetch_page_texts(provider: SeedTextProvider, collections, jobs: int) -> None:
    """Fetch and digest every HTML seed's page concurrently; the fetcher
    serializes same-host requests itself. Warnings raised during the
    parallel phase are re-appended in sorted order so manifests stay
    deterministic."""
    from concurrent.futures import ThreadPoolExecutor

    uris = sorted(
        {
            seed.canonical
            for collection in collections.values()
            for seed in collection.seeds
            if seed.kind == HTML_KIND
        }
    )
    main_warnings = provider.warnings
    phase: list[str] = []
    provider.warnings = phase
    try:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(provider.page_text, uris))
    finally:
        provider.warnings = main_warnings
        if main_warnings is not None:
            main_warnings.extend(sorted(phase))


def _age_tables(rows_index: RowIndex, judge: RelevanceIndex, provider: SeedTextProvider, warnings):
    """Ages of relevant HTML seeds per row cell, summary plus ECDF.

    A page is dated once, however many rows hold it. A seed whose
    estimate postdates its retrieval is warned about once, at the first
    row (in row-key order) that holds it.
    """
    summary_rows = []
    ecdf_rows = []
    warned: set[str] = set()
    fetcher = provider.fetcher
    estimators = digest_date_estimators(fetcher)
    estimates: dict[str, tuple | None] = {}

    def estimate(uri):
        if uri not in estimates:
            result = fetcher.dereference(uri)
            if result.failed or not result.ok:
                estimates[uri] = None
            else:
                estimates[uri] = estimate_publication_date(result, estimators)
        return estimates[uri]

    for row_key in rows_index.keys:
        samples = []
        for seed in rows_index.seeds[row_key]:
            if seed.kind != HTML_KIND:
                continue
            judgment = judge.judgment(seed)
            if judgment is None or not judgment.relevant:
                continue
            found = estimate(seed.canonical)
            if found is None:
                continue
            estimated, estimator = found
            sample = make_age_sample(seed.canonical, estimated, estimator, seed.retrieved_at)
            if sample.flagged and seed.canonical not in warned:
                warned.add(seed.canonical)
                warnings.append(
                    f"seed {seed.canonical}: publication estimate {estimated} postdates "
                    "retrieval; excluded from age aggregates"
                )
            samples.append(sample)
        summary = age_distribution(samples)
        topic, source, vertical, post_class = row_key
        if summary is None:
            summary_rows.append([topic, source, vertical, post_class, NA, NA, NA, NA, NA])
            continue
        summary_rows.append(
            [topic, source, vertical, post_class,
             fmt(summary.minimum), fmt(summary.q1), fmt(summary.median),
             fmt(summary.q3), fmt(summary.maximum)]
        )
        for age_years, fraction in summary.ecdf:
            ecdf_rows.append(
                [topic, source, vertical, post_class, fmt(age_years), fmt(fraction)]
            )
    return (
        _table(("topic", "source", "vertical", "class", "min", "q1", "median", "q3", "max"),
               summary_rows),
        _table(("topic", "source", "vertical", "class", "age_years", "fraction"), ecdf_rows),
    )


def _diversity_table(rows_index: RowIndex):
    rows = []
    for row_key in rows_index.keys:
        seeds = rows_index.seeds[row_key]
        for kind_name, kind in KIND_FILTERS:
            subset = seeds if kind is None else [s for s in seeds if s.kind == kind]
            hosts = [s.hostname for s in subset]
            value = hostname_diversity(hosts)
            topic, source, vertical, post_class = row_key
            rows.append(
                [topic, source, vertical, post_class, kind_name,
                 fmt(value), fmt(len(subset)), fmt(len(set(hosts)))]
            )
    return _table(
        ("topic", "source", "vertical", "class", "kind", "diversity", "seed_count", "host_count"),
        rows,
    )


def _overlap_table(collections, rows_index: RowIndex, reference_source):
    reference_by_topic: dict[str, set] = {}
    for key in sorted(collections):
        topic, source, _vertical, _post_class = key
        if source == reference_source:
            reference_by_topic.setdefault(topic, set()).update(
                collections[key].canonical_uris
            )
    rows = []
    for row_key in rows_index.keys:
        topic, source, vertical, post_class = row_key
        if source == reference_source or topic not in reference_by_topic:
            continue
        candidate = {s.canonical for s in rows_index.seeds[row_key]}
        reference = reference_by_topic[topic]
        value = serp_overlap(reference, candidate)
        rows.append(
            [topic, source, vertical, post_class,
             fmt(value), fmt(len(candidate)), fmt(len(reference))]
        )
    return _table(
        ("topic", "source", "vertical", "class", "overlap", "candidate_count", "reference_count"),
        rows,
    )


def _table(header, rows) -> dict:
    return {"header": list(header), "rows": rows}


# ---------------------------------------------------------------------------
# Bundle emission
# ---------------------------------------------------------------------------


def build_manifest(config_echo: dict, warnings, counts: dict) -> dict:
    return {
        "tool": "seedsmith",
        "version": __version__,
        "kernel": textkernel.IMPLEMENTATION,
        "stopwords_version": STOPWORDS_VERSION,
        "config": config_echo,
        "counts": counts,
        "warnings": list(warnings),
        "warning_count": len(warnings),
    }


def write_bundle(bundle: dict, out_dir, formats=("csv",)) -> list[Path]:
    """Write the report bundle; returns the created file paths.

    ``bundle`` is {"tables": ..., "manifest": ...}. CSV emission writes
    one file per table plus manifest.json and bundle.json; JSON emission
    writes report.json carrying the same values.

    Every file is ``json.dumps(value, ensure_ascii=False, indent=2,
    sort_keys=True)`` plus a newline. Each top-level value is encoded
    once and bundle.json is spliced from those texts: the indenting
    encoder is pure Python, and the tables are most of the bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    created = []
    texts = {key: _json_text(bundle[key]) for key in sorted(bundle)}

    path = out_dir / "bundle.json"
    path.write_text(_splice_object(texts) + "\n", encoding="utf-8")
    created.append(path)
    path = out_dir / "manifest.json"
    path.write_text(texts["manifest"] + "\n", encoding="utf-8")
    created.append(path)

    if "csv" in formats:
        for name in sorted(bundle["tables"]):
            table = bundle["tables"][name]
            path = out_dir / f"{name}.csv"
            write_csv(path, table["header"], table["rows"])
            created.append(path)
    if "json" in formats:
        path = out_dir / "report.json"
        path.write_text(texts["tables"] + "\n", encoding="utf-8")
        created.append(path)
    return created


def write_csv(path: Path, header, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _json_text(value) -> str:
    return json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True)


def _splice_object(texts: dict) -> str:
    """``_json_text`` of an object whose members' texts are ``texts``, in
    key order. Exact because JSON escapes every newline inside a string,
    so each newline of a member's text starts one of its lines."""
    if not texts:
        return "{}"
    members = (
        f"  {json.dumps(key, ensure_ascii=False)}: " + text.replace("\n", "\n  ")
        for key, text in texts.items()
    )
    return "{\n" + ",\n".join(members) + "\n}"

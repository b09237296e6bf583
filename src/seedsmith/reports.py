"""Report-table assembly and deterministic CSV emission.

All table rows are pre-formatted strings (floats to 4 decimals, absent
values as "NA"), so identical inputs yield byte-identical files. Each
table is written once, as ``<name>.csv``; ``seedsmith report`` reads a
run's CSVs back to re-emit them as CSV or as one ``report.json``.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import NamedTuple

from . import __version__, textkernel
from .analytics import (
    DEFAULT_RELEVANCE_THRESHOLD,
    K_BINS,
    MODE_NORMALIZED,
    age_days,
    age_distribution,
    class_average_precision,
    conditional_relevance_by_k,
    estimate_publication_date,
    hostname_diversity,
    judge_relevance,
    serp_overlap,
    uri_count_distribution,
)
from .corpus.fetch import FetchError, Fetcher
from .corpus.model import Corpus
from .extraction import HTML_KIND, NON_HTML_KIND, SEED_CSV_HEADER, seed_rows
from .goldstandard import GoldStandard, build_term_vector
from .segmentation import MC, MC_MEMBER_CLASSES, report_rows
from .stopwords import STOPWORDS_VERSION

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


def partition_tables(partition) -> dict:
    """The segment stage's tables: group and post counts per report row,
    of the cells as partitioned (``partition``) and of the rows with PnA1
    and PnAn pooled into MC (``partition_mc``)."""
    counts = {
        row_key: (sum(len(partition[key]) for key in members),
                  sum(len(g.post_ids) for key in members for g in partition[key]))
        for row_key, members in report_rows(partition).items()
    }

    def table(excluded):
        return _table(PARTITION_HEADER, [list(map(fmt, (*key, *n)))
                                         for key, n in counts.items() if key[3] not in excluded])

    return {"partition": table((MC,)), "partition_mc": table(MC_MEMBER_CLASSES)}


def seeds_table(collections) -> dict:
    """The extract stage's table: every cell's deduplicated seeds."""
    return _table(SEED_CSV_HEADER, [list(map(fmt, row)) for row in seed_rows(collections)])


class SeedTextProvider:
    """Supplies the text a seed is judged on.

    HTML seeds are judged on the main-content text of their dereferenced
    document, read once from the fetcher's page digest (``Fetcher.text``);
    everything else on the text of the post that embedded the URI. A page
    that yields no text adds a warning each time it is read; the run
    reports each distinct warning once.
    """

    def __init__(self, corpus: Corpus, fetcher: Fetcher, warnings: list):
        self.corpus = corpus
        self.fetcher = fetcher
        self.warnings = warnings

    def __call__(self, seed) -> str:
        if seed.kind == HTML_KIND:
            return self.page_text(seed.canonical)
        post = self.corpus.posts.get(seed.post_id)
        return post.text if post else ""

    def page(self, uri: str) -> str:
        """The key of ``uri``'s judgments: the final URI of a usable page,
        which the requests redirected to it share, else ``uri``."""
        result = self.fetcher.dereference(uri)
        return result.final_uri if result.ok and self.fetcher.digest(result).text_error is None else uri

    def page_text(self, uri: str) -> str:
        result = self.fetcher.dereference(uri)
        if not result.ok:
            self.warnings.append(f"seed {uri} not fetchable ({result.status}); judged on empty text")
            return ""
        digest = self.fetcher.digest(result)
        if digest.text_error is not None:
            self.warnings.append(f"seed {uri} unusable as HTML: {digest.text_error}")
            return ""
        return self.fetcher.text(result)


class RelevanceIndex:
    """Memoized per-seed relevance judgments against per-topic golds."""

    def __init__(self, golds: dict[str, GoldStandard], text_provider, threshold, pages: dict):
        self.golds = golds
        self.text_provider = text_provider
        self.threshold = threshold
        self.pages = pages  # HTML seed URI -> topics, all judged at its first judgment
        self._memo = {}

    def judgment(self, topic, seed):
        gold = self.golds.get(topic)
        if gold is None:
            return None
        if seed.kind == HTML_KIND:
            key = (topic, seed.canonical)
        else:
            # Non-HTML seeds are judged on the embedding post's text,
            # which differs per post.
            key = (topic, seed.post_id, seed.canonical)
        if key not in self._memo:
            # Requests redirected to one usable page share its judgments.
            page = (topic, self.text_provider.page(seed.canonical)) if seed.kind == HTML_KIND else key
            if page not in self._memo:
                vector = build_term_vector([self.text_provider(seed)])
                for judged in {topic, *self.pages.pop(seed.canonical, ()), *self.pages.pop(page[1], ())}:
                    if (judged, *page[1:]) not in self._memo:  # a page read anew keeps its judgments
                        self._memo[(judged, *page[1:])] = judge_relevance(vector, self.golds[judged], self.threshold)
            self._memo[key] = self._memo[page]
        return self._memo[key]


class PostObservation(NamedTuple):
    """Seed counts and precisions of one post within one post-class cell."""

    post_id: str
    k: dict  # kind name -> seed count (0 when none)
    precision: dict  # kind name -> float | None


def collect_observations(collections, judge: RelevanceIndex) -> dict:
    """{cell key: [PostObservation]}: one observation per post per cell,
    over each post's own seeds (``post_seeds``, not the collection-deduped
    ones), cells in sorted order, posts in first-seen order. The cell key
    holds the topic, source, vertical and class the observations share."""
    observations = {}
    for key in sorted(collections):
        topic = key[0]
        by_post: dict[str, list] = {}
        for seed in collections[key].post_seeds:
            by_post.setdefault(seed.post_id, []).append(seed)
        cell = observations[key] = []
        for post_id, seeds in by_post.items():
            ks = {}
            precs = {}
            for kind_name, kind in KIND_FILTERS:
                subset = seeds if kind is None else [s for s in seeds if s.kind == kind]
                ks[kind_name] = len(subset)
                if not subset or judge.golds.get(topic) is None:
                    precs[kind_name] = None
                    continue
                judged = [judge.judgment(topic, s) for s in subset]
                precs[kind_name] = sum(1 for j in judged if j and j.relevant) / len(subset)
            cell.append(PostObservation(post_id, ks, precs))
    return observations


class RowIndex(NamedTuple):
    """Every report row's member cells, deduped seeds and observations,
    and the rows of each (source, scope).

    Rows and member cells are ``segmentation.report_rows``, both sorted;
    that order fixes the order in which seeds and observations pool, and
    with it every float summation order.
    """

    cells: dict  # row key -> sorted member cell keys, rows sorted
    scopes: dict  # (source, scope) -> sorted row keys: the class's rows; for All, every cell
    seeds: dict  # row key -> seeds deduped by canonical URI, first occurrence winning
    observations: dict  # row key -> its member cells' PostObservations, pooled in order


def index_rows(collections, observations) -> RowIndex:
    """Group the cells, seeds and observations of every report row in one
    pass over each."""
    cells = report_rows(collections)
    scopes: dict = {}
    seeds = {}
    grouped = {}
    for row_key, members in cells.items():
        scopes.setdefault((row_key[1], row_key[3]), []).append(row_key)
        if members == [row_key]:
            scopes.setdefault((row_key[1], "All"), []).append(row_key)
        first = {}  # canonical URI -> its first seed, in first-seen order
        for key in members:
            for seed in collections[key].seeds:
                first.setdefault(seed.canonical, seed)
        seeds[row_key] = list(first.values())
        grouped[row_key] = [o for key in members for o in observations[key]]
    return RowIndex(cells, scopes, seeds, grouped)


def scope_posts(rows_index: RowIndex, source, scope, kind_name):
    """(topic, observation) for each observation of the rows of
    (``source``, ``scope``) holding at least one seed of the kind, in
    order."""
    for row_key in rows_index.scopes.get((source, scope), ()):
        for o in rows_index.observations[row_key]:
            if o.k[kind_name] >= 1:
                yield row_key[0], o


def build_tables(
    corpus: Corpus,
    collections,
    golds: dict[str, GoldStandard],
    fetcher: Fetcher,
    warnings: list,
    *,
    threshold: float = DEFAULT_RELEVANCE_THRESHOLD,
    dist_mode: str = MODE_NORMALIZED,
    reference_source: str = DEFAULT_REFERENCE_SOURCE,
    jobs: int = 1,
) -> dict:
    """The measures' report tables as {name: {"header": [...], "rows":
    [[str]]}}: every table but the segment and extract stages' own
    (``partition_tables``, ``seeds_table``). With ``jobs`` > 1, that
    many workers fetch and digest the judged pages first."""
    pages: dict[str, list] = {}  # HTML seed URI -> the topics with a gold whose cells hold it
    for (topic, *_), collection in collections.items():
        for seed in collection.post_seeds:
            if topic in golds and seed.kind == HTML_KIND and topic not in pages.setdefault(seed.canonical, []):
                pages[seed.canonical].append(topic)
    if jobs > 1:
        _prefetch_page_texts(fetcher, pages, jobs)
    judge = RelevanceIndex(golds, SeedTextProvider(corpus, fetcher, warnings), threshold, pages)
    observations = collect_observations(collections, judge)
    sources = sorted({key[1] for key in collections})
    rows_index = index_rows(collections, observations)
    tables = {}

    for kind_name, _kind in KIND_FILTERS:
        distribution_rows = []
        by_k_rows = []
        for source in sources:
            for scope in SCOPES:
                probabilities = uri_count_distribution(
                    ((topic, o.k[kind_name])
                     for topic, o in scope_posts(rows_index, source, scope, kind_name)),
                    dist_mode,
                )
                by_bin = conditional_relevance_by_k(
                    (o.k[kind_name], o.precision[kind_name])
                    for _topic, o in scope_posts(rows_index, source, scope, kind_name)
                )
                for bin_label in K_BINS:
                    distribution_rows.append(
                        [bin_label, source, scope, fmt(probabilities.get(bin_label)),
                         dist_mode]
                    )
                    by_k_rows.append(
                        [bin_label, source, scope, *_precision_cells(by_bin[bin_label]), kind_name]
                    )
        tables[f"distribution_{kind_name}"] = _table(
            ("bin", "source", "class", "probability", "mode"), distribution_rows
        )
        tables[f"relevance_by_k_{kind_name}"] = _table(
            ("bin", "source", "class", "avg_precision", "post_count", "kind"), by_k_rows
        )

    for kind_name, kind in KIND_FILTERS:
        rows = []
        for row_key in rows_index.cells:
            obs = [o for o in rows_index.observations[row_key] if o.k[kind_name] >= 1]
            summary = class_average_precision(o.precision[kind_name] for o in obs)
            rows.append([*row_key, *_precision_cells(summary), kind_name])
        tables[f"precision_{kind_name}"] = _table(
            ("topic", "source", "vertical", "class", "avg_precision", "post_count", "kind"),
            rows,
        )

    tables["age"], tables["age_ecdf"] = _age_tables(rows_index, judge, fetcher, warnings)
    tables["diversity"] = _diversity_table(rows_index)
    tables["overlap"] = _overlap_table(collections, rows_index, reference_source)
    return tables


def _precision_cells(summary) -> tuple[str, str]:
    """The average and post-count cells of a precision summary; an empty
    one (None) reads NA with a count of 0."""
    if summary is None:
        return NA, "0"
    return fmt(summary.average), fmt(summary.post_count)


def _prefetch_page_texts(fetcher: Fetcher, pages, jobs: int) -> None:
    """Fetch and digest, concurrently, every page the sequential pass
    will judge. The fetcher serializes same-host requests itself.

    This only fills the fetcher's caches, so the run writes what a
    ``jobs=1`` run writes: nothing is warned about here, and a fetch
    that fails in strict mode (which caches no failure) is fetched again
    and raises in the sequential pass, in its order.
    """
    from concurrent.futures import ThreadPoolExecutor

    def fill(uri):
        try:
            result = fetcher.dereference(uri)
        except FetchError:
            return
        if result.ok:
            fetcher.digest(result)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(fill, sorted(pages)))


def _age_tables(rows_index: RowIndex, judge: RelevanceIndex, fetcher: Fetcher, warnings):
    """Ages of relevant HTML seeds per row cell, summary plus ECDF.

    A page is dated once, however many rows hold it. A seed whose
    estimate postdates its retrieval is warned about at each row that
    holds it.
    """
    summary_rows = []
    ecdf_rows = []
    estimates: dict[str, tuple | None] = {}

    def estimate(uri):
        if uri not in estimates:
            result = fetcher.dereference(uri)
            if not result.ok:
                estimates[uri] = None
            else:
                estimates[uri] = estimate_publication_date(result, fetcher.digest(result))
        return estimates[uri]

    for row_key in rows_index.cells:
        ages = []
        for seed in rows_index.seeds[row_key]:
            if seed.kind != HTML_KIND:
                continue
            judgment = judge.judgment(row_key[0], seed)
            if judgment is None or not judgment.relevant:
                continue
            found = estimate(seed.canonical)
            if found is None:
                continue
            estimated = found[0]
            days = age_days(estimated, seed.retrieved_at)
            if days < 0:
                warnings.append(
                    f"seed {seed.canonical}: publication estimate {estimated} postdates "
                    "retrieval; excluded from age aggregates"
                )
            ages.append(days)
        summary = age_distribution(ages)
        if summary is None:
            summary_rows.append([*row_key, NA, NA, NA, NA, NA])
            continue
        summary_rows.append(
            [*row_key, fmt(summary.minimum), fmt(summary.q1), fmt(summary.median),
             fmt(summary.q3), fmt(summary.maximum)]
        )
        for age_years, fraction in summary.ecdf:
            ecdf_rows.append([*row_key, fmt(age_years), fmt(fraction)])
    return (
        _table(("topic", "source", "vertical", "class", "min", "q1", "median", "q3", "max"),
               summary_rows),
        _table(("topic", "source", "vertical", "class", "age_years", "fraction"), ecdf_rows),
    )


def _diversity_table(rows_index: RowIndex):
    rows = []
    for row_key in rows_index.cells:
        seeds = rows_index.seeds[row_key]
        for kind_name, kind in KIND_FILTERS:
            subset = seeds if kind is None else [s for s in seeds if s.kind == kind]
            hosts = [s.hostname for s in subset]
            rows.append(
                [*row_key, kind_name, fmt(hostname_diversity(hosts)), fmt(len(subset)),
                 fmt(len(set(hosts)))]
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
    for row_key in rows_index.cells:
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


def write_bundle(tables: dict, out_dir, manifest=None) -> list[Path]:
    """Write each table to ``<name>.csv`` in ``out_dir`` and, when
    ``manifest`` is given, ``manifest.json``; returns the created file
    paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    created = []
    if manifest is not None:
        created.append(out_dir / "manifest.json")
        write_json(created[0], manifest)
    for name in sorted(tables):
        created.append(out_dir / f"{name}.csv")
        write_csv(created[-1], tables[name]["header"], tables[name]["rows"])
    return created


def write_csv(path: Path, header, rows) -> None:
    """One table as CSV lines ending in "\\n". A row with a carriage
    return in a cell has every cell quoted: the plain writer quotes only
    the characters of its line terminator, so it would leave a bare
    "\\r" unquoted and the file would no longer parse back."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        plain = csv.writer(fh, lineterminator="\n")
        quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        for row in [header, *rows]:
            (quoted if "\r" in "".join(row) else plain).writerow(row)


def write_json(path: Path, value) -> None:
    """The format of ``manifest.json`` and ``report.json``."""
    path.write_text(json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True) + "\n", encoding="utf-8")

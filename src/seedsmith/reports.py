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
from .corpus.fetch import Fetcher
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


def judgment_key(topic, seed) -> tuple:
    """The key of ``seed``'s judgment for ``topic``: an HTML seed is
    judged on its page, any other on the text of the post holding it."""
    return (topic, seed.kind, seed.canonical if seed.kind == HTML_KIND else seed.post_id)


def judge_seeds(corpus: Corpus, collections, golds: dict[str, GoldStandard], fetcher: Fetcher, warnings: list,
                *, threshold: float = DEFAULT_RELEVANCE_THRESHOLD, jobs: int = 1) -> tuple[dict, dict]:
    """({``judgment_key``: RelevanceJudgment}, {HTML seed URI: estimated
    publication date}): every seed of a topic with a gold, each judged
    once, and every page judged relevant there, each dated once. The
    pass is the run's last page reader: no table reads a page.

    An HTML seed is judged on the main text of its page. Pages are read in
    this thread, in the order of their first judgment (sorted cells, then
    ``post_seeds``), so every ``jobs`` writes the same; ``jobs`` > 1
    threads only fetch ahead (``_fetch_ahead``). A page is judged for each
    topic of its URI or final URI not yet judged there (requests
    redirected to one page share its judgments), taking its text out of
    the digest, and dated if a topic of its URI judged it relevant. A page
    that cannot be fetched (or fetched again for its text) or yields no
    text is judged on "" with a warning, so it is never dated; in strict
    mode a failed fetch raises. Any other seed is judged on its post.
    """
    judgments = {}
    pages: dict[str, list] = {}  # HTML seed URI -> the topics whose cells hold it
    for key in sorted(collections):
        topic = key[0]
        if topic not in golds:
            continue
        for seed in collections[key].post_seeds:
            if seed.kind == HTML_KIND:
                topics = pages.setdefault(seed.canonical, [])
                if topic not in topics:
                    topics.append(topic)
            elif (found := judgment_key(topic, seed)) not in judgments:
                post = corpus.posts.get(seed.post_id)
                judgments[found] = judge_relevance(build_term_vector([post.text if post else ""]),
                                                   golds[topic], threshold)

    def judge(topics, text):
        vector = build_term_vector([text])
        return {topic: judge_relevance(vector, golds[topic], threshold) for topic in topics}

    def unfetchable(uri, result):
        warnings.append(f"seed {uri} not fetchable ({result.status}); judged on empty text")

    by_page: dict[str, dict] = {}  # final URI of a usable page -> {topic: judgment}
    dates = {}
    for result, (uri, topics) in zip(_fetch_ahead(fetcher, pages, jobs), pages.items()):
        if not result.ok:
            unfetchable(uri, result)
            judged = judge(topics, "")
        elif (digest := fetcher.digest(result)).text_error is not None:
            warnings.append(f"seed {uri} unusable as HTML: {digest.text_error}")
            judged = judge(topics, "")
        else:
            judged = by_page.setdefault(result.final_uri, {})
            unjudged = [t for t in dict.fromkeys([*topics, *pages.get(result.final_uri, ())]) if t not in judged]
            if unjudged:
                text = fetcher.text(result, lambda again: unfetchable(uri, again))  # a re-read may fail
                judged.update(judge(unjudged, text))
            if any(judged[t].relevant for t in topics) and (found := estimate_publication_date(result, digest)):
                dates[uri] = found[0]
        judgments.update(((topic, HTML_KIND, uri), judged[topic]) for topic in topics)
    return judgments, dates


def _fetch_ahead(fetcher: Fetcher, uris, jobs: int):
    """``fetcher.dereference`` of each of ``uris``, in order. With ``jobs``
    > 1, that many threads fetch the next pages while the caller reads
    one: at most ``jobs`` + 1 pages are fetched and not yet read."""
    if jobs <= 1:
        yield from map(fetcher.dereference, uris)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        ahead = []
        for uri in uris:
            ahead.append(pool.submit(fetcher.dereference, uri))
            if len(ahead) > jobs:
                yield ahead.pop(0).result()
        while ahead:
            yield ahead.pop(0).result()


class PostObservation(NamedTuple):
    """Seed counts and precisions of one post within one post-class cell."""

    post_id: str
    k: dict  # kind name -> seed count (0 when none)
    precision: dict  # kind name -> float | None


def collect_observations(collections, judgments: dict) -> dict:
    """{cell key: [PostObservation]}: one observation per post per cell,
    over each post's own seeds (``post_seeds``, not the collection-deduped
    ones), cells in sorted order, posts in first-seen order. The cell key
    holds the topic, source, vertical and class the observations share.
    ``judgments`` are ``judge_seeds``'; a topic without them (no gold) has
    no precision."""
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
                judged = [judgments.get(judgment_key(topic, s)) for s in subset]
                if not subset or None in judged:
                    precs[kind_name] = None
                    continue
                precs[kind_name] = sum(1 for j in judged if j.relevant) / len(subset)
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


def build_tables(collections, judgments: dict, dates: dict, warnings: list, *, dist_mode: str,
                 reference_source: str) -> dict:
    """The measures' report tables as {name: {"header": [...], "rows":
    [[str]]}}: every table but the segment and extract stages' own
    (``partition_tables``, ``seeds_table``), from ``judge_seeds``'
    judgments and dates. No table reads a page."""
    observations = collect_observations(collections, judgments)
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

    tables["age"], tables["age_ecdf"] = _age_tables(rows_index, judgments, dates, warnings)
    tables["diversity"] = _diversity_table(rows_index)
    tables["overlap"] = _overlap_table(collections, rows_index, reference_source)
    return tables


def _precision_cells(summary) -> tuple[str, str]:
    """The average and post-count cells of a precision summary; an empty
    one (None) reads NA with a count of 0."""
    if summary is None:
        return NA, "0"
    return fmt(summary.average), fmt(summary.post_count)


def _age_tables(rows_index: RowIndex, judgments: dict, dates: dict, warnings):
    """Ages of relevant HTML seeds per row cell, summary plus ECDF, from
    the dates ``judge_seeds`` gave the pages it judged relevant.

    A seed whose estimate postdates its retrieval is warned about at each
    row that holds it.
    """
    summary_rows = []
    ecdf_rows = []
    for row_key in rows_index.cells:
        ages = []
        for seed in rows_index.seeds[row_key]:
            judgment = judgments.get(judgment_key(row_key[0], seed))
            estimated = dates.get(seed.canonical)
            if seed.kind != HTML_KIND or judgment is None or not judgment.relevant or estimated is None:
                continue
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

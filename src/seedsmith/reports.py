"""Report-bundle assembly and deterministic CSV/JSON emission.

All table rows are pre-formatted strings (floats to 4 decimals, absent
values as "NA"), so the CSV and JSON renderings carry identical values
and identical inputs yield byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
from contextlib import ExitStack
from dataclasses import dataclass
from json.encoder import encode_basestring
from pathlib import Path

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
from .goldstandard import GoldStandard
from .segmentation import MC, MC_MEMBER_CLASSES, mc_view, partition_counts
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
    """The segment stage's tables: group and post counts per cell, as
    partitioned and with PnA1 and PnAn pooled into MC (``mc_view``)."""
    return {
        name: _table(PARTITION_HEADER, [list(map(fmt, row)) for row in partition_counts(cells)])
        for name, cells in (("partition", partition), ("partition_mc", mc_view(partition)))
    }


def seeds_table(collections) -> dict:
    """The extract stage's table: every cell's deduplicated seeds."""
    return _table(SEED_CSV_HEADER, [list(map(fmt, row)) for row in seed_rows(collections)])


@dataclass
class ReportConfig:
    threshold: float = DEFAULT_RELEVANCE_THRESHOLD
    dist_mode: str = MODE_NORMALIZED
    reference_source: str = DEFAULT_REFERENCE_SOURCE
    jobs: int = 1


class SeedTextProvider:
    """Supplies the text a seed is judged on.

    HTML seeds are judged on the main-content text of their dereferenced
    document, read from the fetcher's page digest; everything else on
    the text of the post that embedded the URI. A page that yields no
    text adds a warning each time it is read; the run reports each
    distinct warning once.
    """

    def __init__(self, corpus: Corpus, fetcher: Fetcher, warnings: list):
        self.corpus = corpus
        self.fetcher = fetcher
        self.warnings = warnings

    def __call__(self, seed) -> str:
        if seed.kind == HTML_KIND:
            return self.page_text(seed.canonical)
        post = self.corpus.posts.get(seed.provenance.post_id)
        return post.text if post else ""

    def page_text(self, uri: str) -> str:
        result = self.fetcher.dereference(uri)
        if not result.ok:
            self.warnings.append(f"seed {uri} not fetchable ({result.status}); judged on empty text")
            return ""
        digest = self.fetcher.digest(result)
        if digest.text_error is not None:
            self.warnings.append(f"seed {uri} unusable as HTML: {digest.text_error}")
        return digest.text


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
            self._memo[key] = judge_relevance([self.text_provider(seed)], gold, self.threshold)
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
    collections,
    golds: dict[str, GoldStandard],
    fetcher: Fetcher,
    config: ReportConfig,
    warnings: list,
) -> dict:
    """The measures' report tables as {name: {"header": [...], "rows":
    [[str]]}}: every table but the segment and extract stages' own
    (``partition_tables``, ``seeds_table``)."""
    if config.jobs > 1:
        _prefetch_page_texts(fetcher, collections, golds, config.jobs)
    provider = SeedTextProvider(corpus, fetcher, warnings)
    judge = RelevanceIndex(golds, provider, config.threshold)
    observations = collect_observations(collections, judge)
    sources = sorted({key[1] for key in collections})
    rows_index = index_rows(collections, observations)
    tables = {}

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
        for row_key in rows_index.keys:
            obs = [o for o in rows_index.observations[row_key] if o.k[kind_name] >= 1]
            summary = class_average_precision(o.precision[kind_name] for o in obs)
            rows.append([*row_key, *_precision_cells(summary), kind_name])
        tables[f"precision_{kind_name}"] = _table(
            ("topic", "source", "vertical", "class", "avg_precision", "post_count", "kind"),
            rows,
        )

    tables["age"], tables["age_ecdf"] = _age_tables(rows_index, judge, provider, warnings)
    tables["diversity"] = _diversity_table(rows_index)
    tables["overlap"] = _overlap_table(collections, rows_index, config.reference_source)
    return tables


def _precision_cells(summary) -> tuple[str, str]:
    """The average and post-count cells of a precision summary; an empty
    one (None) reads NA with a count of 0."""
    if summary is None:
        return NA, "0"
    return fmt(summary.average), fmt(summary.post_count)


def _prefetch_page_texts(fetcher: Fetcher, collections, golds, jobs: int) -> None:
    """Fetch and digest, concurrently, every page the sequential pass
    will judge: the HTML post seeds of the cells whose topic has a gold
    standard. The fetcher serializes same-host requests itself.

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

    uris = {
        seed.canonical
        for key, collection in collections.items()
        if key[0] in golds
        for seed in collection.post_seeds
        if seed.kind == HTML_KIND
    }
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(fill, sorted(uris)))


def _age_tables(rows_index: RowIndex, judge: RelevanceIndex, provider: SeedTextProvider, warnings):
    """Ages of relevant HTML seeds per row cell, summary plus ECDF.

    A page is dated once, however many rows hold it. A seed whose
    estimate postdates its retrieval is warned about at each row that
    holds it.
    """
    summary_rows = []
    ecdf_rows = []
    fetcher = provider.fetcher
    estimates: dict[str, tuple | None] = {}

    def estimate(uri):
        if uri not in estimates:
            result = fetcher.dereference(uri)
            if not result.ok:
                estimates[uri] = None
            else:
                estimates[uri] = estimate_publication_date(result, fetcher.digest(result))
        return estimates[uri]

    for row_key in rows_index.keys:
        ages = []
        for seed in rows_index.seeds[row_key]:
            if seed.kind != HTML_KIND:
                continue
            judgment = judge.judgment(seed)
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


def check_tables(tables) -> None:
    """Raises ValueError unless ``tables`` is what ``write_bundle``
    writes: {str name: {"header": [str], "rows": [[str]]}}. The message
    names the table."""
    if not isinstance(tables, dict):
        raise ValueError(f"tables is not an object, got {type(tables).__name__}")
    for name, table in tables.items():
        if not isinstance(name, str):
            raise ValueError(f"table name {name!r} is not a string")
        bad = f"table {name}"
        if not (isinstance(table, dict) and table.keys() == {"header", "rows"}):
            raise ValueError(f"{bad}: not an object of exactly 'header' and 'rows'")
        if not isinstance(table["rows"], list):
            raise ValueError(f"{bad}: 'rows' is not a list")
        for index, row in enumerate([table["header"], *table["rows"]]):
            if not (isinstance(row, list) and all(isinstance(cell, str) for cell in row)):
                where = f"row {index}" if index else "header"
                raise ValueError(f"{bad}: {where} is not a list of strings")


def write_bundle(bundle: dict, out_dir, formats=("csv",)) -> list[Path]:
    """Write the report bundle; returns the created file paths.

    ``bundle`` is {"tables": ..., "manifest": ...}, written to bundle.json
    and manifest.json; "csv" in ``formats`` adds one file per table, and
    "json" adds report.json, the tables alone.

    Every JSON file is ``json.dumps(value, ensure_ascii=False, indent=2,
    sort_keys=True)`` plus a newline. The tables go one at a time: each
    table's text, its cells passed straight through ``encode_basestring``,
    is built once, written to report.json and, indented once more, to
    bundle.json, and dropped, so memory holds one table's text. Other
    top-level values go through ``json.dumps``. A value that is not
    table-shaped fails ``check_tables`` before any file is written.
    """
    tables = bundle["tables"]
    check_tables(tables)
    texts = {key: _json_text(value) for key, value in bundle.items() if key != "tables"}
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    created = [out_dir / "manifest.json", out_dir / "bundle.json"]
    created[0].write_text(texts["manifest"] + "\n", encoding="utf-8")
    with ExitStack() as files:
        whole = files.enter_context(created[1].open("wb"))
        report = None
        if "json" in formats:
            created.append(out_dir / "report.json")
            report = files.enter_context(created[-1].open("wb"))

        def put(text: bytes) -> None:
            # bundle.json holds the tables text one level deeper. Exact
            # because JSON escapes every newline inside a string.
            if report is not None:
                report.write(text)
            whole.write(text.replace(b"\n", b"\n  "))

        lead = "{"
        for key in sorted(bundle):
            whole.write(f"{lead}\n  {encode_basestring(key)}: ".encode())
            lead = ","
            if key != "tables":
                whole.write(texts[key].replace("\n", "\n  ").encode())
                continue
            separator = b"{\n"
            for name in sorted(tables):
                put(separator)
                separator = b",\n"
                put(_table_text(name, tables[name]).encode())
                if "csv" in formats:
                    created.append(out_dir / f"{name}.csv")
                    write_csv(created[-1], tables[name]["header"], tables[name]["rows"])
            put(b"\n}" if tables else b"{}")
        whole.write(b"\n}\n")
        if report is not None:
            report.write(b"\n")
    return created


def write_csv(path: Path, header, rows) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _json_text(value) -> str:
    return json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True)


def _json_list(items, pad: str, encode) -> str:
    """``_json_text(items)`` for a list whose items ``encode`` writes,
    with every line after the first indented by ``pad``."""
    if not items:
        return "[]"
    sep = ",\n  " + pad
    return "[" + sep[1:] + sep.join(map(encode, items)) + "\n" + pad + "]"


def _row_text(row) -> str:
    return _json_list(row, "      ", encode_basestring)


def _table_text(name: str, table: dict) -> str:
    """The member ``name`` of ``_json_text(tables)``, from its indent to
    its closing brace, for a table that ``check_tables`` passed."""
    return (
        f"  {encode_basestring(name)}: {{\n"
        f'    "header": {_json_list(table["header"], "    ", encode_basestring)},\n'
        f'    "rows": {_json_list(table["rows"], "    ", _row_text)}\n'
        "  }"
    )

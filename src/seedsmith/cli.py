"""Command-line pipeline: ingest, segment, extract, goldstd, analyze,
report, and the all-in-one run.

Offline fixture mode is the default; live fetching must be asked for
explicitly since scraped SERPs are not reproducible. Exit codes: 0
success, 1 runtime failure (strict mode), 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import gc
import sys
from pathlib import Path

from . import __version__
from .analytics import DEFAULT_RELEVANCE_THRESHOLD, MODE_LITERAL, MODE_NORMALIZED
from .corpus.fetch import EPOCH, FetchError, Fetcher, FixtureTransport, HttpTransport, RecordingTransport
from .corpus.jsonl import REQUIRED, URIS, CorpusFormatError, load_corpus, read_fields, read_input, read_json
from .corpus.jsonl import read_topics, write_corpus
from .corpus.model import Corpus, CorpusError, CorpusIntegrityError, Post
from .corpus.threads import expand_thread
from .extraction import ExtractionError, assemble_collections
from .goldstandard import GoldStandard, GoldStandardError, build_gold_standard, extract_references
from .reports import (
    DEFAULT_REFERENCE_SOURCE,
    build_manifest,
    build_tables,
    judge_seeds,
    partition_tables,
    seeds_table,
    write_bundle,
    write_json,
)
from .segmentation import partition_corpus

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


class BundleError(Exception):
    """A ``report --bundle`` path that is not a run's output directory."""


def _validate(args) -> None:
    """Rejects a setting that no stage can run with. ``--mode`` and
    ``--dist-mode`` need no check here: the parser allows only their
    choices."""
    if not (0 < args.threshold < 1):
        raise ConfigError(f"--threshold must be in (0, 1), got {args.threshold}")
    if not (0 <= args.politeness_delay < float("inf")):
        raise ConfigError(f"--politeness-delay must be a finite number >= 0, got {args.politeness_delay}")
    for name in ("reply_limit", "depth_limit", "max_redirects", "jobs"):
        if getattr(args, name) < 0:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= 0")
    if args.golds is not None:
        if args.refs is not None:
            raise ConfigError("--golds and --refs cannot be given together")
        if not args.golds.is_dir():
            raise ConfigError(f"--golds is not a directory: {args.golds}")


def _fetcher(args) -> Fetcher:
    """The run's fetcher. ``--fixtures`` is checked here, not in
    ``_validate``, because only the stages that fetch need it."""
    fixtures = args.fixtures
    if args.mode == "offline":
        if fixtures is None:
            raise ConfigError("offline mode needs --fixtures DIR")
        if not fixtures.is_dir():
            raise ConfigError(f"fixture directory does not exist: {fixtures}")
    elif fixtures is not None and fixtures.exists() and not fixtures.is_dir():
        raise ConfigError(f"--fixtures is not a directory: {fixtures}")
    if args.mode == "live":
        # With --fixtures, every exchange is recorded there for an
        # offline replay; without, nothing is kept on disk.
        transport = HttpTransport(politeness_delay=args.politeness_delay)
        if fixtures is not None:
            transport = RecordingTransport(fixtures, transport)
        return Fetcher(transport, args.max_redirects, lenient=not args.strict)
    # A fixture without a Date header is stamped with the epoch, not
    # the wall clock, so that offline bundles are byte-identical.
    return Fetcher(FixtureTransport(fixtures), args.max_redirects, lenient=not args.strict,
                   clock=lambda: EPOCH)


def _echo(args) -> dict:
    """The settings that shape the outputs, as written to the manifest."""
    return {name: _echo_value(value) for name, value in vars(args).items() if name not in _NOT_ECHOED}


# Left out of the manifest: the subcommand, the output directory, the
# topics, reference, gold and reply files, and the settings that change
# only how a run proceeds (pacing and worker count), not what it writes.
_NOT_ECHOED = frozenset(
    {"command", "out", "topics", "refs", "golds", "politeness_delay", "jobs", "replies"}
)


def _echo_value(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _csv_list(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


# The pipeline subcommands: each runs ``run_pipeline`` with the same
# flags and stops after the stage it names (``run`` after ``analyze``).
PIPELINE_COMMANDS = (
    ("ingest", "validate a corpus, optionally expanding reply threads"),
    ("segment", "partition the corpus into post-class groups"),
    ("extract", "extract seed collections from post-class groups"),
    ("goldstd", "build per-topic gold-standard term vectors"),
    ("analyze", "compute every measure and write the report bundle"),
    ("run", "full pipeline: segment, extract, goldstd, analyze, report"),
)


def _add_pipeline_flags(parser):
    parser.add_argument("--corpus", required=True, type=Path, help="corpus JSONL file")
    parser.add_argument("--out", required=True, type=Path, help="output directory")
    parser.add_argument("--replies", type=Path,
                        help="corpus JSONL of recorded replies to expand threads from")
    parser.add_argument("--topics", type=Path, help="JSON topics file overriding the corpus topics record")
    parser.add_argument("--refs", type=Path,
                        help="JSON mapping topic_id to a reference-list page URI or a list of "
                             "reference URIs (goldstd needs it)")
    parser.add_argument("--golds", type=Path,
                        help="directory of gold_<topic>.json files, used instead of --refs")
    parser.add_argument("--mode", choices=("offline", "live"), default="offline")
    parser.add_argument("--fixtures", type=Path,
                        help="directory of {uri-hash}.response fixtures: replayed offline, "
                             "recorded into (and replayed from) with --mode live")
    parser.add_argument("--threshold", type=float, default=DEFAULT_RELEVANCE_THRESHOLD,
                        help="relevance threshold (cosine must exceed it)")
    parser.add_argument("--reply-limit", type=int, default=500)
    parser.add_argument("--depth-limit", type=int, default=3)
    parser.add_argument("--max-redirects", type=int, default=10)
    parser.add_argument("--politeness-delay", type=float, default=1.0,
                        help="seconds between live requests to one host")
    parser.add_argument("--dist-mode", choices=(MODE_NORMALIZED, MODE_LITERAL),
                        default=MODE_NORMALIZED)
    parser.add_argument("--mc-exclude-root", action="store_true",
                        help="count only replies inside micro-collection groups")
    parser.add_argument("--global-dedup", action="store_true",
                        help="dedup seeds across all cells instead of per cell")
    parser.add_argument("--fetch-kinds", action="store_true",
                        help="dereference seeds to classify HTML/non-HTML from media types")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--strict", action="store_true",
                        help="abort on fetch errors instead of downgrading to warnings")
    parser.add_argument("--reference-source", default=DEFAULT_REFERENCE_SOURCE,
                        help="source name treated as the web-SERP reference for overlap")
    parser.add_argument("--only-topics", type=_csv_list, default=())
    parser.add_argument("--only-sources", type=_csv_list, default=())
    parser.add_argument("--only-verticals", type=_csv_list, default=())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedsmith",
        description="Generate and characterize web-archive seed URIs from social media posts.",
    )
    parser.add_argument("--version", action="version", version=f"seedsmith {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in PIPELINE_COMMANDS:
        _add_pipeline_flags(sub.add_parser(name, help=help_text))

    p = sub.add_parser("report", help="re-emit a run's tables as csv files or as one report.json")
    p.add_argument("--bundle", required=True, type=Path, help="a run's --out directory")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _load_corpus(args) -> Corpus:
    corpus = load_corpus(args.corpus)
    if args.topics:
        where = f"bad topics file {args.topics}"
        corpus.topics = read_topics(
            read_json(read_input(args.topics), CorpusFormatError, where), CorpusFormatError, where
        )
        try:
            corpus.validate()
        except CorpusIntegrityError as exc:
            raise CorpusIntegrityError(f"{where}: {exc}") from exc
    return corpus


def _expand_replies(corpus: Corpus, args) -> Corpus:
    """Grow SERP-visible posts into threads using the recorded replies
    in ``--replies``."""
    replies: dict[str, list[Post]] = {}
    for post in load_corpus(args.replies).posts.values():
        if post.parent_id is not None:
            replies.setdefault(post.parent_id, []).append(post)
    for root in sorted(corpus.posts.values(), key=lambda p: p.id):
        if not root.serp_visible:
            continue
        for post in expand_thread(root, replies, args.reply_limit)[1:]:
            if post.id not in corpus.posts:
                corpus.posts[post.id] = post
    try:
        corpus.validate()
    except CorpusIntegrityError as exc:
        raise CorpusIntegrityError(f"{args.replies}: {exc}") from exc
    return corpus


def _load_golds(args, corpus: Corpus, fetcher, warnings) -> dict[str, GoldStandard]:
    golds: dict[str, GoldStandard] = {}
    if args.golds:
        paths = sorted(args.golds.glob("gold_*.json"))
        read: dict[str, Path] = {}  # topic id -> the file that gave it
        for path in paths:
            try:
                gold = GoldStandard.from_json(read_input(path))
            except GoldStandardError as exc:
                raise GoldStandardError(f"bad gold standard file {path}: {exc}") from exc
            if gold.topic_id in read:
                raise GoldStandardError(
                    f"bad gold standard file {path}: topic {gold.topic_id!r} is also in {read[gold.topic_id]}"
                )
            read[gold.topic_id] = path
            if gold.topic_id in corpus.topics:
                golds[gold.topic_id] = gold
            else:
                warnings.append(f"gold standard file {path}: topic {gold.topic_id!r} is not in the corpus; not used")
        if not paths:
            warnings.append(f"no gold_*.json file in --golds {args.golds}; relevance tables will be NA")
        return golds
    if not args.refs:
        warnings.append("no --refs or --golds given; relevance tables will be NA")
        return golds
    refs = _load_refs(args.refs)
    for topic_id in sorted(corpus.topics):
        entry = refs.get(topic_id)
        if entry is None:
            warnings.append(f"topic {topic_id}: no reference entry; skipped")
            continue
        if isinstance(entry, str):
            page = fetcher.dereference(entry)
            if not page.ok:
                warnings.append(f"topic {topic_id}: reference page {entry} not fetchable ({page.status})")
                continue
            ref_uris = extract_references(page)
            if not ref_uris:
                warnings.append(f"topic {topic_id}: no references found in {entry}")
                continue
        else:
            ref_uris = list(entry)
        try:
            golds[topic_id] = build_gold_standard(corpus.topics[topic_id], ref_uris, fetcher)
        except GoldStandardError as exc:
            if not fetcher.lenient:
                raise
            warnings.append(str(exc))
            continue
        for uri, reason in golds[topic_id].failures:
            warnings.append(f"topic {topic_id}: reference {uri} failed: {reason}")
    return golds


def _load_tables(out_dir: Path) -> dict:
    """The tables of a run's ``--out`` directory: each ``<name>.csv``
    file, read back with ``csv``, as {name: {"header": [...], "rows":
    [[str]]}}. A directory with no CSV file, or a CSV that is empty or
    not UTF-8 text, raises BundleError naming the directory."""
    if not out_dir.is_dir():
        raise BundleError(f"bad run directory {out_dir}: not a directory")
    tables = {}
    csv.field_size_limit(sys.maxsize)  # a cell holds a whole URI, however long
    for path in sorted(out_dir.glob("*.csv")):
        try:
            path.name.encode("utf-8")  # a name whose bytes are not UTF-8 cannot name a table
            with path.open(encoding="utf-8", newline="") as fh:
                lines = list(csv.reader(fh))
        except (UnicodeError, csv.Error) as exc:
            raise BundleError(f"bad run directory {out_dir}: {path.name}: {exc}") from exc
        if not lines:
            raise BundleError(f"bad run directory {out_dir}: {path.name} is empty")
        tables[path.stem] = {"header": lines[0], "rows": lines[1:]}
    if not tables:
        raise BundleError(f"bad run directory {out_dir}: no CSV file")
    return tables


def _load_refs(path: Path) -> dict:
    """The refs file: a JSON object mapping each topic id to the URI of a
    reference-list page or to a list of reference URIs. Anything else
    raises GoldStandardError naming the file (and the topic)."""
    where = f"bad refs file {path}"
    refs = read_json(read_input(path), GoldStandardError, where, member="topic")
    if type(refs) is not dict:
        raise GoldStandardError(f"{where}: not a JSON object of topic ids")
    return read_fields(refs, dict.fromkeys(refs, (URIS, REQUIRED)), GoldStandardError, where)


def _write_golds(golds: dict[str, GoldStandard], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for topic_id in sorted(golds):
        path = out_dir / f"gold_{topic_id}.json"
        path.write_text(golds[topic_id].to_json(), encoding="utf-8")


STAGES = ("ingest", "segment", "extract", "goldstd", "analyze")


def run_pipeline(args, stop: str = "analyze") -> int:
    """Run the stages in pipeline order up to ``stop`` and write that
    stage's files. ``args`` holds the parsed pipeline flags; each stage
    is given the settings it reads as plain arguments.

    ingest (load the corpus, grow threads from ``--replies``) ->
    segment -> extract -> goldstd -> analyze, which writes every report
    table once, as a CSV file, with ``manifest.json`` beside them. Gold
    standards read only the corpus, so a run stopped at goldstd skips
    segmentation and extraction and fetches no permalinks. Each report
    table is built once, when its stage ends; a run stopped at segment
    or extract writes that stage's tables through the same
    ``write_bundle``, with no manifest.

    Each warning is appended to the run's one list and reported nowhere
    else. Both places that report the list, a stopped run's stderr (as
    ``warning: ...``) and a full run's ``manifest.json``, list each
    distinct warning once, in the order it was first raised. A failed
    run raises for ``main`` to print as one ``error:`` line.
    """
    collecting = gc.isenabled()
    if args.mode == "offline":  # its records hold no reference cycles; a test in tests/test_cli.py keeps it so
        gc.disable()
    try:
        return _run_stages(args, stop)
    finally:
        if collecting:
            gc.enable()


def _run_stages(args, stop: str) -> int:
    if stop not in STAGES:
        raise ValueError(f"unknown stage {stop!r}; expected one of {STAGES}")
    _validate(args)
    if stop == "goldstd" and not args.refs:
        raise ConfigError("goldstd needs --refs FILE")
    warnings: list[str] = []
    out = args.out
    corpus = _load_corpus(args)
    if args.replies:
        corpus = _expand_replies(corpus, args)
    if stop == "ingest":
        out.mkdir(parents=True, exist_ok=True)
        write_corpus(corpus, out / "corpus.jsonl")
        print(f"ingested {len(corpus.posts)} posts, {len(corpus.topics)} topics")
        return EXIT_OK

    tables: dict = {}  # report tables, each built once, as its stage finishes
    if stop != "goldstd":
        partition = partition_corpus(
            corpus, only_topics=args.only_topics, only_sources=args.only_sources,
            only_verticals=args.only_verticals, mc_exclude_root=args.mc_exclude_root,
            warnings=warnings,
        )
        tables.update(partition_tables(partition))
        if stop == "segment":
            write_bundle(tables, out)
            _print_warnings(warnings)
            return EXIT_OK

    fetcher = _fetcher(args)
    if stop != "goldstd":
        collections = assemble_collections(
            corpus, partition, fetcher, warnings,
            depth_limit=args.depth_limit, fetch_kinds=args.fetch_kinds, global_dedup=args.global_dedup,
        )
        fetcher.release("links")  # permalink substitution was their one reader
        tables["seeds"] = seeds_table(collections)
        if stop == "extract":
            write_bundle({"seeds": tables["seeds"]}, out)
            _print_warnings(warnings)
            return EXIT_OK

    golds = _load_golds(args, corpus, fetcher, warnings)
    if stop == "goldstd":
        if not golds:
            print("error: no gold standards could be built", file=sys.stderr)
            return EXIT_RUNTIME
        _write_golds(golds, out)
        _print_warnings(warnings)
        return EXIT_OK
    _write_golds(golds, out / "golds")
    fetcher.release("body")  # reference lists were the last pages read from a body

    # Offline, judging is CPU-bound and the GIL runs one thread at a time:
    # only a live run's network waits gain from --jobs workers.
    judgments, dates = judge_seeds(corpus, collections, golds, fetcher, warnings, threshold=args.threshold,
                                   jobs=args.jobs if args.mode == "live" else 1)
    fetcher.release("text")  # judging was the last page reader
    tables.update(build_tables(collections, judgments, dates, warnings,
                               dist_mode=args.dist_mode, reference_source=args.reference_source))
    counts = {
        "posts": len(corpus.posts),
        "topics": len(corpus.topics),
        "groups": sum(len(g) for g in partition.values()),
        "seeds": sum(len(c.seeds) for c in collections.values()),
        "gold_standards": len(golds),
    }
    write_bundle(tables, out, build_manifest(_echo(args), _distinct(warnings), counts))
    return EXIT_OK


def _distinct(warnings) -> list[str]:
    """The run's warnings as reported: each distinct one once, in the
    order it was first raised."""
    return list(dict.fromkeys(warnings))


def _print_warnings(warnings) -> None:
    for warning in _distinct(warnings):
        print(f"warning: {warning}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            tables = _load_tables(args.bundle)
            if args.format == "csv":
                write_bundle(tables, args.out)
            else:
                args.out.mkdir(parents=True, exist_ok=True)
                write_json(args.out / "report.json", tables)
            return EXIT_OK
        stop = "analyze" if args.command == "run" else args.command
        return run_pipeline(args, stop)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BundleError, CorpusError, FetchError, ExtractionError, GoldStandardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

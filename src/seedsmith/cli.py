"""Command-line pipeline: ingest, segment, extract, goldstd, analyze,
report, and the all-in-one run.

Offline fixture mode is the default; live fetching must be asked for
explicitly since scraped SERPs are not reproducible. Exit codes: 0
success, 1 runtime failure (strict mode), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from . import __version__
from .analytics import DEFAULT_RELEVANCE_THRESHOLD, MODE_LITERAL, MODE_NORMALIZED
from .corpus.fetch import (EPOCH, FetchError, FetchPolicy, Fetcher, FixtureTransport, HttpTransport,
                           RecordingTransport)
from .corpus.jsonl import check_encodable, load_corpus, write_corpus
from .corpus.model import Corpus, CorpusError, CorpusIntegrityError, Post, TopicSpec
from .corpus.threads import expand_thread
from .extraction import AssembleOptions, ExtractionError, assemble_collections, seed_json
from .goldstandard import GoldStandard, GoldStandardError, build_gold_standard, extract_references
from .reports import (
    DEFAULT_REFERENCE_SOURCE,
    ReportConfig,
    build_manifest,
    build_tables,
    check_tables,
    partition_tables,
    seeds_table,
    write_bundle,
    write_csv,
)
from .segmentation import Selector, partition_corpus

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


class BundleError(Exception):
    """A ``report --bundle`` file that is not a saved report bundle."""


@dataclass
class RunConfig:
    corpus: Path
    out: Path
    topics: Path | None = None
    refs: Path | None = None
    golds: Path | None = None
    mode: str = "offline"
    fixtures: Path | None = None
    threshold: float = DEFAULT_RELEVANCE_THRESHOLD
    reply_limit: int = 500
    depth_limit: int = 3
    max_redirects: int = 10
    politeness_delay: float = 1.0
    dist_mode: str = MODE_NORMALIZED
    mc_exclude_root: bool = False
    global_dedup: bool = False
    fetch_kinds: bool = False
    strict: bool = False
    jobs: int = 1
    reference_source: str = DEFAULT_REFERENCE_SOURCE
    only_topics: tuple[str, ...] = ()
    only_sources: tuple[str, ...] = ()
    only_verticals: tuple[str, ...] = ()
    replies: Path | None = None

    def validate(self) -> None:
        if not (0 < self.threshold < 1):
            raise ConfigError(f"--threshold must be in (0, 1), got {self.threshold}")
        for name in ("reply_limit", "depth_limit", "max_redirects", "jobs"):
            if getattr(self, name) < 0:
                raise ConfigError(f"--{name.replace('_', '-')} must be >= 0")
        if self.mode not in ("offline", "live"):
            raise ConfigError(f"--mode must be offline or live, got {self.mode!r}")
        if self.dist_mode not in (MODE_NORMALIZED, MODE_LITERAL):
            raise ConfigError(f"--dist-mode must be normalized or literal, got {self.dist_mode!r}")

    def selector(self) -> Selector:
        return Selector.of(self.only_topics, self.only_sources, self.only_verticals)

    def fetcher(self) -> Fetcher:
        """The run's fetcher. ``--fixtures`` is checked here, not in
        ``validate``, because only the stages that fetch need it."""
        if self.mode == "offline":
            if self.fixtures is None:
                raise ConfigError("offline mode needs --fixtures DIR")
            if not Path(self.fixtures).is_dir():
                raise ConfigError(f"fixture directory does not exist: {self.fixtures}")
        elif self.fixtures is not None and Path(self.fixtures).exists() and not Path(self.fixtures).is_dir():
            raise ConfigError(f"--fixtures is not a directory: {self.fixtures}")
        policy = FetchPolicy(max_redirects=self.max_redirects, lenient=not self.strict)
        if self.mode == "live":
            # With --fixtures, every exchange is recorded there for an
            # offline replay; without, nothing is kept on disk.
            transport = HttpTransport(politeness_delay=self.politeness_delay)
            if self.fixtures is not None:
                transport = RecordingTransport(self.fixtures, transport)
            return Fetcher(transport, policy)
        # A fixture without a Date header is stamped with the epoch, not
        # the wall clock, so that offline bundles are byte-identical.
        return Fetcher(FixtureTransport(self.fixtures), policy, clock=lambda: EPOCH)

    def echo(self) -> dict:
        """The settings that shape the outputs, as written to the manifest."""
        return {
            f.name: _echo_value(getattr(self, f.name))
            for f in fields(self)
            if f.name not in _NOT_ECHOED
        }


# Left out of the manifest: the output directory, the topics, reference,
# gold and reply files, and the settings that change only how a run
# proceeds (pacing and worker count), not what it writes.
_NOT_ECHOED = frozenset({"out", "topics", "refs", "golds", "politeness_delay", "jobs", "replies"})


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

    p = sub.add_parser("report", help="re-emit a saved bundle as csv or json")
    p.add_argument("--bundle", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def config_from_args(args) -> RunConfig:
    config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    config.validate()
    return config


def _load_corpus(config: RunConfig) -> Corpus:
    corpus = load_corpus(config.corpus)
    if config.topics:
        try:
            topics = json.loads(Path(config.topics).read_text(encoding="utf-8"))
            corpus.topics = {t["topic_id"]: TopicSpec(**t) for t in topics}
            corpus.validate()
        except (CorpusError, ValueError, TypeError, KeyError) as exc:
            raise CorpusError(f"bad topics file {config.topics}: {exc}") from exc
    return corpus


def _expand_replies(corpus: Corpus, config: RunConfig) -> Corpus:
    """Grow SERP-visible posts into threads using the recorded replies
    in ``config.replies``."""
    replies: dict[str, list[Post]] = {}
    for post in load_corpus(config.replies).posts.values():
        if post.parent_id is not None:
            replies.setdefault(post.parent_id, []).append(post)
    for root in sorted(corpus.posts.values(), key=lambda p: p.id):
        if not root.serp_visible:
            continue
        for post in expand_thread(root, replies, config.reply_limit)[1:]:
            if post.id not in corpus.posts:
                corpus.posts[post.id] = post
    try:
        corpus.validate()
    except CorpusIntegrityError as exc:
        raise CorpusIntegrityError(f"{config.replies}: {exc}") from exc
    return corpus


def _load_golds(config: RunConfig, corpus: Corpus, fetcher, warnings) -> dict[str, GoldStandard]:
    golds: dict[str, GoldStandard] = {}
    if config.golds:
        for path in sorted(Path(config.golds).glob("gold_*.json")):
            try:
                gold = GoldStandard.from_json(path.read_text(encoding="utf-8"))
            except (GoldStandardError, UnicodeDecodeError) as exc:
                raise GoldStandardError(f"bad gold standard file {path}: {exc}") from exc
            golds[gold.topic_id] = gold
        return golds
    if not config.refs:
        warnings.append("no --refs or --golds given; relevance tables will be NA")
        return golds
    refs = _load_refs(Path(config.refs))
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
            if not fetcher.policy.lenient:
                raise
            warnings.append(str(exc))
            continue
        for uri, reason in golds[topic_id].failures:
            warnings.append(f"topic {topic_id}: reference {uri} failed: {reason}")
    return golds


_TABLE_NAME_RE = re.compile(r"[A-Za-z0-9_-]+")


def _load_bundle(path: Path) -> dict:
    """A saved bundle.json: a JSON object with ``manifest`` and
    ``tables``, whose tables pass ``reports.check_tables`` under names
    fit to be file names in ``--out``: what ``write_bundle`` can write.
    Anything else raises BundleError naming the file (and the table)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        bundle = json.loads(text)
    except ValueError as exc:
        raise BundleError(f"bad bundle file {path}: {exc}") from exc
    tables = bundle.get("tables") if isinstance(bundle, dict) else None
    if not isinstance(tables, dict) or "manifest" not in bundle:
        raise BundleError(f"bad bundle file {path}: not a JSON object with 'tables' and 'manifest'")
    for name in tables:
        if not _TABLE_NAME_RE.fullmatch(name):
            raise BundleError(f"bad bundle file {path}: table name {name!r} is not a plain file name")
    try:
        check_tables(tables)
        if "\\u" in text:  # only an escape can name a lone surrogate
            check_encodable(bundle)
    except ValueError as exc:
        raise BundleError(f"bad bundle file {path}: {exc}") from exc
    return bundle


def _load_refs(path: Path) -> dict:
    """The refs file: a JSON object mapping each topic id to the URI of a
    reference-list page or to a list of reference URIs. Anything else
    raises GoldStandardError naming the file (and the topic)."""
    try:
        refs = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise GoldStandardError(f"bad refs file {path}: {exc}") from exc
    if not isinstance(refs, dict):
        raise GoldStandardError(f"bad refs file {path}: not a JSON object of topic ids")
    for topic_id, entry in refs.items():
        if not isinstance(entry, str) and not (
            isinstance(entry, list) and all(isinstance(uri, str) for uri in entry)
        ):
            raise GoldStandardError(
                f"bad refs file {path}: topic {topic_id}: not a URI or a list of URIs"
            )
        try:
            check_encodable([topic_id, entry])
        except ValueError as exc:
            raise GoldStandardError(f"bad refs file {path}: topic {topic_id!r}: {exc}") from exc
    return refs


def _write_golds(golds: dict[str, GoldStandard], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for topic_id in sorted(golds):
        path = out_dir / f"gold_{topic_id}.json"
        path.write_text(golds[topic_id].to_json(), encoding="utf-8")


STAGES = ("ingest", "segment", "extract", "goldstd", "analyze")


def run_pipeline(config: RunConfig, stop: str = "analyze") -> int:
    """Run the stages in pipeline order up to ``stop`` and write that
    stage's files.

    ingest (load the corpus, grow threads from ``config.replies``) ->
    segment -> extract -> goldstd -> analyze, which writes the report
    bundle with its manifest. Gold standards read only the corpus, so a
    run stopped at goldstd skips segmentation and extraction and fetches
    no permalinks. Each report table is built once, when its stage ends;
    a run stopped at segment or extract writes that stage's tables as
    ``write_bundle`` writes them in a full run.

    Each warning is appended to the run's one list and reported nowhere
    else. Both places that report the list, a stopped run's stderr (as
    ``warning: ...``) and a full run's ``manifest.json``, list each
    distinct warning once, in the order it was first raised. A failed
    run raises for ``main`` to print as one ``error:`` line.
    """
    if stop not in STAGES:
        raise ValueError(f"unknown stage {stop!r}; expected one of {STAGES}")
    if stop == "goldstd" and not config.refs:
        raise ConfigError("goldstd needs --refs FILE")
    warnings: list[str] = []
    out = Path(config.out)
    corpus = _load_corpus(config)
    if config.replies:
        corpus = _expand_replies(corpus, config)
    if stop == "ingest":
        out.mkdir(parents=True, exist_ok=True)
        write_corpus(corpus, out / "corpus.jsonl")
        print(f"ingested {len(corpus.posts)} posts, {len(corpus.topics)} topics")
        return EXIT_OK

    tables: dict = {}  # report tables, each built once, as its stage finishes
    if stop != "goldstd":
        partition = partition_corpus(
            corpus, config.selector(), mc_exclude_root=config.mc_exclude_root, warnings=warnings
        )
        tables.update(partition_tables(partition))
        if stop == "segment":
            _write_tables(tables, ("partition", "partition_mc"), out)
            _print_warnings(warnings)
            return EXIT_OK

    fetcher = config.fetcher()
    if stop != "goldstd":
        collections = assemble_collections(
            corpus,
            partition,
            fetcher,
            AssembleOptions(
                depth_limit=config.depth_limit,
                fetch_kinds=config.fetch_kinds,
                global_dedup=config.global_dedup,
            ),
            warnings=warnings,
        )
        tables["seeds"] = seeds_table(collections)
        if stop == "extract":
            _write_tables(tables, ("seeds",), out)
            (out / "seeds.json").write_text(
                json.dumps(seed_json(collections), ensure_ascii=False, indent=2) + "\n",
                encoding="utf-8",
            )
            _print_warnings(warnings)
            return EXIT_OK

    golds = _load_golds(config, corpus, fetcher, warnings)
    if stop == "goldstd":
        if not golds:
            print("error: no gold standards could be built", file=sys.stderr)
            return EXIT_RUNTIME
        _write_golds(golds, out)
        _print_warnings(warnings)
        return EXIT_OK
    _write_golds(golds, out / "golds")

    report_config = ReportConfig(
        threshold=config.threshold,
        dist_mode=config.dist_mode,
        reference_source=config.reference_source,
        jobs=config.jobs,
    )
    tables.update(build_tables(corpus, collections, golds, fetcher, report_config, warnings))
    counts = {
        "posts": len(corpus.posts),
        "topics": len(corpus.topics),
        "groups": sum(len(g) for g in partition.values()),
        "seeds": sum(len(c.seeds) for c in collections.values()),
        "gold_standards": len(golds),
    }
    bundle = {
        "tables": tables,
        "manifest": build_manifest(config.echo(), _distinct(warnings), counts),
    }
    write_bundle(bundle, out, formats=("csv", "json"))
    return EXIT_OK


def _write_tables(tables: dict, names, out: Path) -> None:
    """A stopped stage's tables, each to the CSV file ``write_bundle``
    writes for it in a full run."""
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        write_csv(out / f"{name}.csv", tables[name]["header"], tables[name]["rows"])


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
            write_bundle(_load_bundle(args.bundle), args.out, formats=(args.format,))
            return EXIT_OK
        stop = "analyze" if args.command == "run" else args.command
        return run_pipeline(config_from_args(args), stop)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BundleError, CorpusError, FetchError, ExtractionError, GoldStandardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

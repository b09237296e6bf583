"""Command-line pipeline: ingest, segment, extract, goldstd, analyze,
report, and the all-in-one run.

Offline fixture mode is the default; live fetching must be asked for
explicitly since scraped SERPs are not reproducible. Exit codes: 0
success, 1 runtime failure (strict mode), 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .analytics import DEFAULT_RELEVANCE_THRESHOLD, MODE_LITERAL, MODE_NORMALIZED
from .corpus.fetch import EPOCH, FetchError, FetchPolicy, Fetcher, FixtureTransport, HttpTransport
from .corpus.jsonl import load_corpus, write_corpus
from .corpus.model import Corpus, CorpusError, TopicSpec
from .corpus.threads import FixtureThreadAdapter, expand_thread
from .extraction import (
    SEED_CSV_HEADER,
    AssembleOptions,
    ExtractionError,
    assemble_collections,
    seed_json,
    seed_rows,
)
from .goldstandard import GoldStandard, GoldStandardError, build_gold_standard, extract_references
from .reports import (
    DEFAULT_REFERENCE_SOURCE,
    PARTITION_HEADER,
    ReportConfig,
    build_manifest,
    build_tables,
    fmt,
    partition_rows,
    write_bundle,
    write_csv,
)
from .segmentation import Selector, mc_view, partition_corpus

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    pass


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
        if self.mode == "offline":
            if self.fixtures is None:
                raise ConfigError("offline mode needs --fixtures DIR")
            if not Path(self.fixtures).is_dir():
                raise ConfigError(f"fixture directory does not exist: {self.fixtures}")

    def selector(self) -> Selector:
        return Selector.of(self.only_topics, self.only_sources, self.only_verticals)

    def fetcher(self) -> Fetcher:
        policy = FetchPolicy(
            max_redirects=self.max_redirects,
            politeness_delay=0.0 if self.mode == "offline" else self.politeness_delay,
            lenient=not self.strict,
            disk_cache=self.mode == "live",
        )
        if self.mode == "live":
            return Fetcher(HttpTransport(), policy)
        # A fixture without a Date header is stamped with the epoch, not
        # the wall clock, so that offline bundles are byte-identical.
        return Fetcher(FixtureTransport(self.fixtures), policy, clock=lambda: EPOCH)

    def echo(self) -> dict:
        return {
            "corpus": str(self.corpus),
            "mode": self.mode,
            "fixtures": str(self.fixtures) if self.fixtures else None,
            "threshold": self.threshold,
            "reply_limit": self.reply_limit,
            "depth_limit": self.depth_limit,
            "max_redirects": self.max_redirects,
            "dist_mode": self.dist_mode,
            "mc_exclude_root": self.mc_exclude_root,
            "global_dedup": self.global_dedup,
            "fetch_kinds": self.fetch_kinds,
            "strict": self.strict,
            "reference_source": self.reference_source,
            "only_topics": list(self.only_topics),
            "only_sources": list(self.only_sources),
            "only_verticals": list(self.only_verticals),
        }


def _csv_list(raw: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def _add_common(parser):
    parser.add_argument("--corpus", required=True, type=Path, help="corpus JSONL file")
    parser.add_argument("--out", required=True, type=Path, help="output directory")
    parser.add_argument("--topics", type=Path, help="JSON topics file overriding the corpus topics record")
    parser.add_argument("--mode", choices=("offline", "live"), default="offline")
    parser.add_argument("--fixtures", type=Path, help="directory of {uri-hash}.response fixtures")
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

    p = sub.add_parser("ingest", help="validate a corpus, optionally expanding reply threads")
    _add_common(p)
    p.add_argument("--replies", type=Path,
                   help="corpus JSONL of recorded replies to expand threads from")

    p = sub.add_parser("segment", help="partition the corpus into post-class groups")
    _add_common(p)

    p = sub.add_parser("extract", help="extract seed collections from post-class groups")
    _add_common(p)

    p = sub.add_parser("goldstd", help="build per-topic gold-standard term vectors")
    _add_common(p)
    p.add_argument("--refs", required=True, type=Path,
                   help="JSON mapping topic_id to a reference-list page URI or a list of reference URIs")

    p = sub.add_parser("analyze", help="compute every measure and write the report bundle")
    _add_common(p)
    p.add_argument("--refs", type=Path)
    p.add_argument("--golds", type=Path, help="directory of gold_<topic>.json files")

    p = sub.add_parser("report", help="re-emit a saved bundle as csv or json")
    p.add_argument("--bundle", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("run", help="full pipeline: segment, extract, goldstd, analyze, report")
    _add_common(p)
    p.add_argument("--refs", type=Path)
    p.add_argument("--replies", type=Path)
    return parser


def config_from_args(args) -> RunConfig:
    config = RunConfig(
        corpus=args.corpus,
        out=args.out,
        topics=args.topics,
        refs=getattr(args, "refs", None),
        golds=getattr(args, "golds", None),
        mode=args.mode,
        fixtures=args.fixtures,
        threshold=args.threshold,
        reply_limit=args.reply_limit,
        depth_limit=args.depth_limit,
        max_redirects=args.max_redirects,
        politeness_delay=args.politeness_delay,
        dist_mode=args.dist_mode,
        mc_exclude_root=args.mc_exclude_root,
        global_dedup=args.global_dedup,
        fetch_kinds=args.fetch_kinds,
        strict=args.strict,
        jobs=args.jobs,
        reference_source=args.reference_source,
        only_topics=args.only_topics,
        only_sources=args.only_sources,
        only_verticals=args.only_verticals,
    )
    config.validate()
    return config


def _load_corpus(config: RunConfig) -> Corpus:
    corpus = load_corpus(config.corpus)
    if config.topics:
        topics = json.loads(Path(config.topics).read_text(encoding="utf-8"))
        try:
            corpus.topics = {t["topic_id"]: TopicSpec(**t) for t in topics}
        except (TypeError, KeyError) as exc:
            raise CorpusError(f"bad topics file {config.topics}: {exc}") from exc
        corpus.validate()
    return corpus


def _expand_replies(corpus: Corpus, config: RunConfig, replies_path: Path) -> Corpus:
    """Grow SERP-visible posts into threads using recorded replies."""
    recorded = load_corpus(replies_path) if replies_path else None
    if recorded is None:
        return corpus
    adapter = FixtureThreadAdapter(recorded.posts.values())
    for root in sorted(corpus.posts.values(), key=lambda p: p.id):
        if not root.serp_visible:
            continue
        thread = expand_thread(root, adapter, config.reply_limit, provenance=corpus.provenance)
        for post in thread[1:]:
            if post.id not in corpus.posts:
                corpus.posts[post.id] = post
    corpus.validate()
    corpus.log("fixture-threads", replies_file=str(replies_path), posts=len(corpus.posts))
    return corpus


def _load_golds(config: RunConfig, corpus: Corpus, fetcher, warnings) -> dict[str, GoldStandard]:
    golds: dict[str, GoldStandard] = {}
    if config.golds:
        for path in sorted(Path(config.golds).glob("gold_*.json")):
            gold = GoldStandard.from_json(path.read_text(encoding="utf-8"))
            golds[gold.topic_id] = gold
        return golds
    if not config.refs:
        warnings.append("no --refs or --golds given; relevance tables will be NA")
        return golds
    refs = json.loads(Path(config.refs).read_text(encoding="utf-8"))
    for topic_id in sorted(corpus.topics):
        entry = refs.get(topic_id)
        if entry is None:
            warnings.append(f"topic {topic_id}: no reference entry; skipped")
            continue
        if isinstance(entry, str):
            page = fetcher.dereference(entry)
            if page.failed or not page.ok:
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
            if config.strict:
                raise
            warnings.append(str(exc))
            continue
        for uri, reason in golds[topic_id].failures:
            warnings.append(f"topic {topic_id}: reference {uri} failed: {reason}")
    return golds


def _write_golds(golds: dict[str, GoldStandard], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for topic_id in sorted(golds):
        path = out_dir / f"gold_{topic_id}.json"
        path.write_text(golds[topic_id].to_json(), encoding="utf-8")


def run_pipeline(config: RunConfig, replies: Path | None = None) -> int:
    """segment -> extract -> goldstd -> analyze -> report, plus manifest."""
    warnings: list[str] = []
    corpus = _load_corpus(config)
    if replies:
        corpus = _expand_replies(corpus, config, replies)
    fetcher = config.fetcher()

    partition = partition_corpus(
        corpus, config.selector(), mc_exclude_root=config.mc_exclude_root, warnings=warnings
    )
    mc_partition = mc_view(partition)
    collections = assemble_collections(
        corpus,
        partition,
        fetcher,
        AssembleOptions(
            depth_limit=config.depth_limit,
            fetch_kinds=config.fetch_kinds,
            global_dedup=config.global_dedup,
            strict=config.strict,
        ),
        warnings=warnings,
    )
    golds = _load_golds(config, corpus, fetcher, warnings)
    _write_golds(golds, Path(config.out) / "golds")

    report_config = ReportConfig(
        threshold=config.threshold,
        dist_mode=config.dist_mode,
        reference_source=config.reference_source,
        mc_exclude_root=config.mc_exclude_root,
        global_dedup=config.global_dedup,
        jobs=config.jobs,
    )
    tables = build_tables(
        corpus, partition, mc_partition, collections, golds, fetcher, report_config, warnings
    )
    counts = {
        "posts": len(corpus.posts),
        "topics": len(corpus.topics),
        "groups": sum(len(g) for g in partition.values()),
        "seeds": sum(len(c.seeds) for c in collections.values()),
        "gold_standards": len(golds),
    }
    bundle = {
        "tables": tables,
        "manifest": build_manifest(config.echo(), warnings, counts),
    }
    write_bundle(bundle, config.out, formats=("csv", "json"))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            bundle = json.loads(Path(args.bundle).read_text(encoding="utf-8"))
            write_bundle(bundle, args.out, formats=(args.format,))
            return EXIT_OK
        config = config_from_args(args)

        if args.command == "ingest":
            corpus = _load_corpus(config)
            corpus = _expand_replies(corpus, config, args.replies)
            config.out.mkdir(parents=True, exist_ok=True)
            write_corpus(corpus, config.out / "corpus.jsonl")
            print(f"ingested {len(corpus.posts)} posts, {len(corpus.topics)} topics")
            return EXIT_OK

        if args.command == "segment":
            warnings: list[str] = []
            corpus = _load_corpus(config)
            partition = partition_corpus(
                corpus, config.selector(), mc_exclude_root=config.mc_exclude_root, warnings=warnings
            )
            config.out.mkdir(parents=True, exist_ok=True)
            for name, data in (("partition", partition), ("partition_mc", mc_view(partition))):
                write_csv(config.out / f"{name}.csv", PARTITION_HEADER, partition_rows(data))
            for warning in warnings:
                print(f"warning: {warning}", file=sys.stderr)
            return EXIT_OK

        if args.command == "extract":
            warnings = []
            corpus = _load_corpus(config)
            fetcher = config.fetcher()
            partition = partition_corpus(
                corpus, config.selector(), mc_exclude_root=config.mc_exclude_root, warnings=warnings
            )
            collections = assemble_collections(
                corpus,
                partition,
                fetcher,
                AssembleOptions(
                    depth_limit=config.depth_limit,
                    fetch_kinds=config.fetch_kinds,
                    global_dedup=config.global_dedup,
                    strict=config.strict,
                ),
                warnings=warnings,
            )
            config.out.mkdir(parents=True, exist_ok=True)
            write_csv(
                config.out / "seeds.csv",
                SEED_CSV_HEADER,
                [list(map(fmt, row)) for row in seed_rows(collections)],
            )
            (config.out / "seeds.json").write_text(
                json.dumps(seed_json(collections), ensure_ascii=False, indent=2) + "\n",
                encoding="utf-8",
            )
            return EXIT_OK

        if args.command == "goldstd":
            warnings = []
            corpus = _load_corpus(config)
            fetcher = config.fetcher()
            golds = _load_golds(config, corpus, fetcher, warnings)
            if not golds:
                print("error: no gold standards could be built", file=sys.stderr)
                return EXIT_RUNTIME
            _write_golds(golds, config.out)
            for warning in warnings:
                print(f"warning: {warning}", file=sys.stderr)
            return EXIT_OK

        if args.command == "analyze":
            return run_pipeline(config)

        if args.command == "run":
            return run_pipeline(config, replies=args.replies)

        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, FetchError, ExtractionError, GoldStandardError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

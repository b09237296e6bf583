"""Spans around calls into seedsmith's layers, recorded from outside it.

``Tracer.install`` wraps each public function in ``LAYERS`` wherever a
seedsmith module holds it. ``cli`` and ``reports`` import functions by
name, so the wrapper replaces every module-level name bound to the
original function (``seedsmith.cli.partition_corpus``,
``seedsmith.reports.strip_boilerplate``, ``seedsmith.analytics.parse_html``
and so on); methods are replaced on their class. A function that no
longer exists is listed as absent and its metrics read 0.

A span is (id, parent id, name, start, end, extra). Spans stay in memory
and are handed over when the run ends. A span opened on a worker thread
with nothing open on that thread is the child of the span the main thread
has open, because pool workers run on its behalf.

``layer_metrics`` turns one run's spans into the per-layer metrics; a
layer's self time is its span's duration minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict


def _groups(args, partition):
    return {"groups": sum(len(groups) for groups in partition.values())}


def _seeds(args, collections):
    return {"seeds": sum(len(c.seeds) for c in collections.values())}


def _exchange(args, response):
    status, headers, body = response
    html = status == 200 and headers.get("content-type", "").startswith("text/html")
    return {"bytes": len(body), "html": args[1] if html else None}


def _bundle(args, created):
    return {"bytes": sum(path.stat().st_size for path in created)}


# (span name, defining module, function or Class.method, measure of the result)
LAYERS = (
    ("corpus.load", "seedsmith.corpus.jsonl", "load_corpus", None),
    ("corpus.expand", "seedsmith.corpus.threads", "expand_thread", None),
    ("corpus.fetch.dereference", "seedsmith.corpus.fetch", "Fetcher.dereference", None),
    ("corpus.fetch.transport", "seedsmith.corpus.fetch", "FixtureTransport.request", _exchange),
    ("segmentation.partition", "seedsmith.segmentation", "partition_corpus", _groups),
    ("extraction.assemble", "seedsmith.extraction", "assemble_collections", _seeds),
    ("extraction.substitute", "seedsmith.extraction", "substitute_intra_site", None),
    ("goldstandard.build", "seedsmith.goldstandard", "build_gold_standard", None),
    ("goldstandard.strip", "seedsmith.goldstandard", "strip_boilerplate", None),
    ("htmltools.parse", "seedsmith.htmltools", "parse_html", None),
    ("textkernel.token_counts", "seedsmith.textkernel", "token_counts", None),
    ("textkernel.cosine", "seedsmith.textkernel", "sparse_cosine", None),
    ("analytics.judge", "seedsmith.analytics", "judge_relevance", None),
    ("analytics.date", "seedsmith.analytics", "estimate_publication_date", None),
    ("analytics.distribution", "seedsmith.analytics", "uri_count_distribution", None),
    ("reports.observations", "seedsmith.reports", "collect_observations", None),
    ("reports.build_tables", "seedsmith.reports", "build_tables", None),
    ("reports.write", "seedsmith.reports", "write_bundle", _bundle),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def install(self) -> None:
        for name, module_name, qualname, measure in LAYERS:
            try:
                module = importlib.import_module(module_name)
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, measure)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "seedsmith" or mod_name.startswith("seedsmith.")):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, binding, wrapper)

    def report(self) -> dict:
        return {"spans": self.spans, "absent": self.absent}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _wrap(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span_id = next(tracer._ids)
            stack.append(span_id)
            done = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = measure(args, result) if done and measure is not None else None
                tracer.spans.append((span_id, parent, name, start, end, extra))

        return traced


def _covered(children, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the children's intervals."""
    covered = 0.0
    reach = lo
    for start, end in sorted((max(c[3], lo), min(c[4], hi)) for c in children):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced run (``cli.*`` come from the launcher)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
        children[span[1]].append(span)

    def total(name):
        return sum(s[4] - s[3] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def self_time(name):
        return sum(s[4] - s[3] - _covered(children[s[0]], s[3], s[4]) for s in by_name[name])

    def extra_sum(name, key):
        return sum(s[5][key] for s in by_name[name] if s[5])

    prefetch = 0.0
    for span in by_name["reports.build_tables"]:
        starts = [c[3] for c in children[span[0]] if c[2] == "reports.observations"]
        if starts:
            prefetch += min(starts) - span[3]
    html_pages = {s[5]["html"] for s in by_name["corpus.fetch.transport"] if s[5] and s[5]["html"]}
    fetches = calls("corpus.fetch.dereference")
    exchanges = calls("corpus.fetch.transport")
    mib = 1024.0 * 1024.0
    return {
        "corpus.load_s": total("corpus.load"),
        "corpus.expand_s": total("corpus.expand"),
        "corpus.fetch.calls": fetches,
        "corpus.fetch.exchanges": exchanges,
        "corpus.fetch.hit_ratio": 1.0 - exchanges / fetches if fetches else 0.0,
        "corpus.fetch.transport_s": total("corpus.fetch.transport"),
        "corpus.fetch.body_mb": extra_sum("corpus.fetch.transport", "bytes") / mib,
        "segmentation.partition_s": total("segmentation.partition"),
        "segmentation.groups": extra_sum("segmentation.partition", "groups"),
        "extraction.assemble_self_s": self_time("extraction.assemble"),
        "extraction.substitute_s": total("extraction.substitute"),
        "extraction.substitute_calls": calls("extraction.substitute"),
        "extraction.seeds": extra_sum("extraction.assemble", "seeds"),
        "goldstandard.build_s": total("goldstandard.build"),
        "goldstandard.strip_s": total("goldstandard.strip"),
        "goldstandard.strip_calls": calls("goldstandard.strip"),
        "htmltools.parse_s": total("htmltools.parse"),
        "htmltools.parse_calls": calls("htmltools.parse"),
        "htmltools.parses_per_page": calls("htmltools.parse") / len(html_pages) if html_pages else 0.0,
        "textkernel.token_counts_s": total("textkernel.token_counts"),
        "textkernel.token_counts_calls": calls("textkernel.token_counts"),
        "textkernel.cosine_s": total("textkernel.cosine"),
        "textkernel.cosine_calls": calls("textkernel.cosine"),
        "analytics.judge_s": total("analytics.judge"),
        "analytics.judge_calls": calls("analytics.judge"),
        "analytics.date_s": total("analytics.date"),
        "analytics.date_calls": calls("analytics.date"),
        "analytics.distribution_s": total("analytics.distribution"),
        "analytics.distribution_calls": calls("analytics.distribution"),
        "reports.observations_s": total("reports.observations"),
        "reports.build_tables_self_s": self_time("reports.build_tables"),
        "reports.prefetch_s": prefetch,
        "reports.write_s": total("reports.write"),
        "reports.bundle_mb": extra_sum("reports.write", "bytes") / mib,
    }

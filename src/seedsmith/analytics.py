"""Collection measures: URI-count distributions, relevance/precision,
webpage ages, hostname diversity, and overlap with a reference SERP.

Everything here is a pure function over plain values (texts, term
weight dicts, counts, dates, hostnames, canonical URIs); the reports
module assembles these into the exported tables.
"""

from __future__ import annotations

import re
from datetime import date, datetime, timedelta, timezone
from typing import NamedTuple
from urllib.parse import urlsplit

from . import textkernel
from .corpus.fetch import FetchResult, parse_http_date
from .goldstandard import GoldStandard
from .pages import PageDigest

DEFAULT_RELEVANCE_THRESHOLD = 0.25

K_BINS = ("1", "2", "3-4", "5+")

MODE_NORMALIZED = "normalized"
MODE_LITERAL = "literal"

DAYS_PER_YEAR = 365.25


# ---------------------------------------------------------------------------
# Relevance and precision
# ---------------------------------------------------------------------------


class RelevanceJudgment(NamedTuple):
    cosine: float
    relevant: bool
    empty: bool = False  # candidate had no usable text


def judge_relevance(
    vector,
    gold: GoldStandard,
    threshold: float = DEFAULT_RELEVANCE_THRESHOLD,
) -> RelevanceJudgment:
    """Judge a candidate's ``build_term_vector`` against a topic's gold
    standard. Relevance requires the cosine to strictly exceed the
    threshold, so a score exactly at the threshold is non-relevant.
    """
    if not vector:
        return RelevanceJudgment(0.0, False, empty=True)
    cos = textkernel.sparse_cosine(vector, gold.vector, gold.norm)
    return RelevanceJudgment(cos, cos > threshold)


class PrecisionSummary(NamedTuple):
    average: float
    post_count: int


def class_average_precision(per_post_precisions) -> PrecisionSummary | None:
    """Unweighted mean of per-post precision values.

    ``per_post_precisions`` holds one value per contributing post (posts
    without seeds are already excluded). Returns None when nothing
    contributed, which reports render as NA.
    """
    values = [p for p in per_post_precisions if p is not None]
    if not values:
        return None
    return PrecisionSummary(sum(values) / len(values), len(values))


# ---------------------------------------------------------------------------
# URI-count probability distributions
# ---------------------------------------------------------------------------


def k_bin(k: int) -> str:
    if k <= 0:
        raise ValueError("k bins cover link-bearing posts only (k >= 1)")
    if k == 1:
        return "1"
    if k == 2:
        return "2"
    if k <= 4:
        return "3-4"
    return "5+"


def uri_count_distribution(post_counts, mode: str = MODE_NORMALIZED) -> dict[str, float]:
    """Probability that a link-bearing post has k URIs, per k bin.

    ``post_counts`` holds one (topic, k) pair per link-bearing post
    occurrence (k >= 1 URIs of the kind measured); a post counts once
    per post-class cell it belongs to. Two modes:

    - normalized (default): pooled counts over all topics, so the column
      sums to 1;
    - literal: the per-topic fractions are summed as the printed formula
      states, in sorted topic order, so the column sums to the number of
      contributing topics.

    An empty ``post_counts`` gives {}, which reports render as NA.
    """
    if mode not in (MODE_NORMALIZED, MODE_LITERAL):
        raise ValueError(f"unknown mode {mode!r}")
    per_topic: dict[str, dict[str, int]] = {}
    for topic, k in post_counts:
        bins = per_topic.setdefault(topic, dict.fromkeys(K_BINS, 0))
        bins[k_bin(k)] += 1
    totals = {topic: sum(bins.values()) for topic, bins in per_topic.items()}
    pooled = sum(totals.values())
    if pooled == 0:
        return {}
    if mode == MODE_LITERAL:
        topics = sorted(per_topic)
        return {
            label: sum(per_topic[t][label] / totals[t] for t in topics) for label in K_BINS
        }
    return {
        label: sum(bins[label] for bins in per_topic.values()) / pooled for label in K_BINS
    }


def conditional_relevance_by_k(post_stats) -> dict[str, PrecisionSummary | None]:
    """Mean per-post precision grouped by the post's URI-count bin.

    ``post_stats`` is an iterable of (k, precision) pairs, one per
    link-bearing post occurrence. Each bin is summarized as
    ``class_average_precision`` summarizes a collection; a bin nobody
    fell in is None, which reports render as NA.
    """
    buckets: dict[str, list[float]] = {label: [] for label in K_BINS}
    for k, precision in post_stats:
        if precision is not None:
            buckets[k_bin(k)].append(precision)
    return {label: class_average_precision(buckets[label]) for label in K_BINS}


# ---------------------------------------------------------------------------
# Publication dates and ages
# ---------------------------------------------------------------------------

_PATH_DATE_RE = re.compile(r"/((?:19|20)\d{2})/(\d{1,2})(?:/(\d{1,2}))?(?=/|$)")


def date_from_uri_path(fetch: FetchResult) -> date | None:
    """Publication date from a /YYYY/MM/DD/ or /YYYY/MM/ path pattern."""
    path = urlsplit(fetch.final_uri).path
    m = _PATH_DATE_RE.search(path)
    if not m:
        return None
    year, month = int(m.group(1)), int(m.group(2))
    day = int(m.group(3)) if m.group(3) else 1
    try:
        return date(year, month, day)
    except ValueError:
        return None


def date_from_last_modified(fetch: FetchResult) -> date | None:
    raw = fetch.headers.get("last-modified")
    if not raw:
        return None
    try:
        return parse_http_date(raw).date()
    except (TypeError, ValueError, OverflowError):
        return None


def estimate_publication_date(fetch: FetchResult, digest: PageDigest):
    """Publication date of a fetched page, from the first step of a fixed
    chain that finds one: the metadata date of the page's ``digest``,
    then a date in the URI path, then the Last-Modified header.

    Returns (date, step name) or None.
    """
    if digest.published is not None:
        return digest.published, "metadata"
    found = date_from_uri_path(fetch)
    if found is not None:
        return found, "uri-path"
    found = date_from_last_modified(fetch)
    if found is not None:
        return found, "last-modified"
    return None


def age_days(published: date, retrieved_at: datetime) -> float:
    """Age of a page in days: retrieval time minus the publication date,
    taken as midnight UTC. Negative when the estimate postdates the
    retrieval (estimator noise)."""
    midnight = datetime(published.year, published.month, published.day, tzinfo=timezone.utc)
    return (retrieved_at - midnight) / timedelta(days=1)


def _quantile(values, q: float) -> float:
    """Linear-interpolation quantile over a sorted list."""
    n = len(values)
    if n == 1:
        return values[0]
    pos = q * (n - 1)
    lo = int(pos)
    frac = pos - lo
    if lo + 1 < n:
        return values[lo] + (values[lo + 1] - values[lo]) * frac
    return values[lo]


class AgeSummary(NamedTuple):
    minimum: float  # all values in years
    q1: float
    median: float
    q3: float
    maximum: float
    sample_count: int
    ecdf: tuple[tuple[float, float], ...]  # (age_years, fraction <=)


def age_distribution(days) -> AgeSummary | None:
    """Five-number summary plus ECDF of page ages, read in days and
    reported in years. Negative ages (estimates that postdate retrieval)
    are left out.

    Quartiles use linear interpolation. Returns None (NA) when no age is
    left.
    """
    ages = sorted(d / DAYS_PER_YEAR for d in days if d >= 0)
    if not ages:
        return None
    n = len(ages)
    ecdf = []
    for i, value in enumerate(ages, start=1):
        if i == n or ages[i] != value:
            ecdf.append((value, i / n))
    return AgeSummary(
        minimum=ages[0],
        q1=_quantile(ages, 0.25),
        median=_quantile(ages, 0.5),
        q3=_quantile(ages, 0.75),
        maximum=ages[-1],
        sample_count=n,
        ecdf=tuple(ecdf),
    )


# ---------------------------------------------------------------------------
# Hostname diversity and SERP overlap
# ---------------------------------------------------------------------------


def hostname_diversity(hosts) -> float | None:
    """How spread over distinct hosts a collection is, in [0, 1].

    ``hosts`` holds the hostname of each of the collection's N deduped
    seeds. 0 means every seed shares one host, 1 means all hosts are
    distinct: (U - 1) / (N - 1) over U distinct hosts. Collections with
    fewer than two seeds have no meaningful value (None, reported NA).
    """
    hosts = list(hosts)
    n = len(hosts)
    if n < 2:
        return None
    return (len(set(hosts)) - 1) / (n - 1)


def serp_overlap(reference, candidate) -> float | None:
    """Fraction of candidate seeds also present in the reference (web
    SERP) collection; both arguments are iterables of canonical URIs.

    Measures how discoverable the candidate's seeds were via the
    reference engine. Empty candidates have no value (None/NA).
    """
    cand = set(candidate)
    if not cand:
        return None
    return len(cand.intersection(reference)) / len(cand)

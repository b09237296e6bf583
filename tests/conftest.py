import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import pytest

from seedsmith import cli
from seedsmith.analytics import MODE_NORMALIZED, uri_count_distribution
from seedsmith.corpus.fetch import FixtureTransport
from seedsmith.corpus.model import Post, TopicSpec, build_corpus
from seedsmith.reports import KIND_FILTERS, collect_observations, index_rows, scope_posts

sys.path.insert(0, str(Path(__file__).parent))

RETRIEVED = datetime(2018, 11, 6, 0, 0, 0, tzinfo=timezone.utc)

_counter = [0]


def make_post(id=None, **overrides):
    """Post factory with a unique id and the golden-era retrieval date."""
    if id is None:
        _counter[0] += 1
        id = f"p{_counter[0]}"
    defaults = dict(
        id=id,
        source="reddit",
        vertical="top",
        query="river flood",
        query_kind="text",
        topic_id="t1",
        author="alice",
        retrieved_at=RETRIEVED,
        text="",
        serp_visible=False,
    )
    defaults.update(overrides)
    return Post(**defaults)


@pytest.fixture
def live_mode(monkeypatch, tmp_path):
    """Flags for a ``--mode live`` run over ``--fixtures`` that reaches no
    network: ``HttpTransport`` becomes a ``FixtureTransport`` over an
    empty directory, so a request the fixtures do not hold fails as it
    would offline (``missing-fixture``) and nothing is recorded. A live
    run judges its pages with ``--jobs`` workers, an offline one in the
    main thread."""
    monkeypatch.setattr(cli, "HttpTransport", lambda politeness_delay: FixtureTransport(tmp_path / "no-network"))
    return ["--mode", "live"]


def make_topic(topic_id="t1", **overrides):
    defaults = dict(topic_id=topic_id, text_query="river flood")
    defaults.update(overrides)
    return TopicSpec(**defaults)


def make_corpus(posts, topics=None):
    if topics is None:
        topics = [make_topic(t) for t in sorted({p.topic_id for p in posts})]
    return build_corpus(posts, topics)


@dataclass(frozen=True)
class DistributionColumn:
    probabilities: dict  # bin -> probability; empty means NA
    post_count: int  # pooled link-bearing post occurrences

    @property
    def is_na(self) -> bool:
        return not self.probabilities


def distribution_column(collections, *, source, scope="All", kind=None, mode=MODE_NORMALIZED):
    """One URI-count distribution column, computed as the report does:
    the collections' per-post observations (with no judgments, as when
    no topic has a gold standard), pooled over the scope's report rows, fed to
    ``uri_count_distribution``."""
    kind_name = {k: name for name, k in KIND_FILTERS}[kind]
    rows = index_rows(collections, collect_observations(collections, {}))
    held = list(scope_posts(rows, source, scope, kind_name))
    probabilities = uri_count_distribution([(topic, o.k[kind_name]) for topic, o in held], mode)
    return DistributionColumn(probabilities, len(held))


@pytest.fixture
def data_dir():
    return Path(__file__).parent / "data"

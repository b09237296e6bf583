"""Core data model: posts, topics, and validated corpora."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

QUERY_KINDS = ("text", "hashtag")
EXPECTATIONS = ("expected", "unexpected")
RECURRENCES = ("recurring", "non_recurring")


class CorpusError(Exception):
    """Base error for corpus loading/validation problems."""


class CorpusValidationError(CorpusError):
    """A record violates a field-level constraint."""


class CorpusIntegrityError(CorpusError):
    """Cross-record references are broken (duplicate ids, dangling parents)."""


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 timestamp, normalizing to UTC. Naive inputs are
    taken as UTC."""
    raw = value.strip()
    if raw.endswith("Z"):
        raw = raw[:-1] + "+00:00"
    dt = datetime.fromisoformat(raw)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


def format_timestamp(dt: datetime) -> str:
    """Render a datetime as ISO-8601 UTC with a Z suffix."""
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc).isoformat().replace("+00:00", "Z")


@dataclass(frozen=True)
class Post:
    """One social-media post, platform-agnostic.

    ``serp_visible`` marks posts directly returned by a SERP; such posts
    are never replies (``parent_id`` must be absent).
    """

    id: str
    source: str
    vertical: str
    query: str
    query_kind: str
    topic_id: str
    author: str
    retrieved_at: datetime
    text: str = ""
    raw_links: tuple[str, ...] = ()
    parent_id: str | None = None
    serp_visible: bool = False
    created_at: datetime | None = None
    platform_uri: str | None = None

    def __post_init__(self):
        if not self.id:
            raise CorpusValidationError("post id must be non-empty")
        if self.query_kind not in QUERY_KINDS:
            raise CorpusValidationError(
                f"post {self.id}: query_kind {self.query_kind!r} not one of {QUERY_KINDS}"
            )
        if self.serp_visible and self.parent_id is not None:
            raise CorpusValidationError(
                f"post {self.id}: serp_visible posts cannot have a parent_id"
            )
        if not isinstance(self.retrieved_at, datetime):
            raise CorpusValidationError(f"post {self.id}: retrieved_at is required")
        object.__setattr__(self, "raw_links", tuple(self.raw_links))


@dataclass(frozen=True)
class TopicSpec:
    """A dataset topic with its queries and temporal attributes.

    ``start_definition``/``end_definition`` hold an ISO date string, the
    literal "undefined", or None when not recorded.
    """

    topic_id: str
    text_query: str
    hashtag_query: str | None = None
    expectation: str = "unexpected"
    recurrence: str = "non_recurring"
    regularity: str | None = None
    start_definition: str | None = None
    end_definition: str | None = None

    def __post_init__(self):
        if not self.topic_id or any(c in str(self.topic_id) for c in "/\0"):
            raise CorpusValidationError(f"topic_id {self.topic_id!r} is empty or holds '/' or NUL")
        if not self.text_query:
            raise CorpusValidationError(f"topic {self.topic_id}: text_query must be non-empty")
        if self.expectation not in EXPECTATIONS:
            raise CorpusValidationError(
                f"topic {self.topic_id}: expectation {self.expectation!r} not one of {EXPECTATIONS}"
            )
        if self.recurrence not in RECURRENCES:
            raise CorpusValidationError(
                f"topic {self.topic_id}: recurrence {self.recurrence!r} not one of {RECURRENCES}"
            )


@dataclass
class Corpus:
    """An id-keyed set of posts plus their topics."""

    posts: dict[str, Post] = field(default_factory=dict)
    topics: dict[str, TopicSpec] = field(default_factory=dict)

    def __len__(self):
        return len(self.posts)

    def validate(self) -> None:
        """Check referential integrity; raises CorpusIntegrityError or
        CorpusValidationError on the first violation class found."""
        missing_topics = sorted(
            {p.topic_id for p in self.posts.values()} - set(self.topics)
        )
        if missing_topics:
            raise CorpusIntegrityError(
                f"posts reference unknown topics: {', '.join(missing_topics)}"
            )
        dangling = []
        for post in self.posts.values():
            if post.parent_id is None:
                continue
            parent = self.posts.get(post.parent_id)
            if parent is None:
                dangling.append(post.id)
            elif parent.topic_id != post.topic_id or parent.source != post.source:
                raise CorpusIntegrityError(
                    f"post {post.id}: parent {post.parent_id} belongs to a different "
                    "topic or source"
                )
        if dangling:
            raise CorpusIntegrityError(
                f"posts with dangling parent_id: {', '.join(sorted(dangling))}"
            )

    def add_post(self, post: Post) -> None:
        if post.id in self.posts:
            raise CorpusIntegrityError(f"duplicate post id: {post.id}")
        self.posts[post.id] = post


def build_corpus(posts, topics) -> Corpus:
    """Assemble and validate a corpus from iterables of posts and topics."""
    corpus = Corpus()
    for topic in topics:
        if topic.topic_id in corpus.topics:
            raise CorpusIntegrityError(f"duplicate topic id: {topic.topic_id}")
        corpus.topics[topic.topic_id] = topic
    for post in posts:
        corpus.add_post(post)
    corpus.validate()
    return corpus

"""Core data model: posts, topics, and validated corpora."""

from __future__ import annotations

from datetime import datetime, timezone
from typing import NamedTuple

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


class Post(NamedTuple):
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


def _new_post(cls, id, source, vertical, query, query_kind, topic_id, author, retrieved_at, text="",
              raw_links=(), parent_id=None, serp_visible=False, created_at=None, platform_uri=None):
    if not id:
        raise CorpusValidationError("post id must be non-empty")
    if query_kind not in QUERY_KINDS:
        raise CorpusValidationError(f"post {id}: query_kind {query_kind!r} not one of {QUERY_KINDS}")
    if serp_visible and parent_id is not None:
        raise CorpusValidationError(f"post {id}: serp_visible posts cannot have a parent_id")
    if not isinstance(retrieved_at, datetime):
        raise CorpusValidationError(f"post {id}: retrieved_at is required")
    return tuple.__new__(cls, (id, source, vertical, query, query_kind, topic_id, author, retrieved_at, text,
                               tuple(raw_links), parent_id, serp_visible, created_at, platform_uri))


class TopicSpec(NamedTuple):
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


def _new_topic(cls, topic_id, text_query, hashtag_query=None, expectation="unexpected",
               recurrence="non_recurring", regularity=None, start_definition=None, end_definition=None):
    if not topic_id or any(c in str(topic_id) for c in "/\0"):
        raise CorpusValidationError(f"topic_id {topic_id!r} is empty or holds '/' or NUL")
    if not text_query:
        raise CorpusValidationError(f"topic {topic_id}: text_query must be non-empty")
    if expectation not in EXPECTATIONS:
        raise CorpusValidationError(f"topic {topic_id}: expectation {expectation!r} not one of {EXPECTATIONS}")
    if recurrence not in RECURRENCES:
        raise CorpusValidationError(f"topic {topic_id}: recurrence {recurrence!r} not one of {RECURRENCES}")
    return tuple.__new__(cls, (topic_id, text_query, hashtag_query, expectation, recurrence, regularity,
                               start_definition, end_definition))


# A NamedTuple's body cannot define ``__new__``, so the two checked
# records get theirs here: building one checks its fields, while
# ``_replace`` and ``_make`` take them as they are. Each ``__new__``
# repeats its class's field order and ``_field_defaults``.
Post.__new__ = staticmethod(_new_post)
TopicSpec.__new__ = staticmethod(_new_topic)


class Corpus:
    """An id-keyed set of posts plus their topics."""

    def __init__(self):
        self.posts: dict[str, Post] = {}
        self.topics: dict[str, TopicSpec] = {}

    def __len__(self):
        return len(self.posts)

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return self.posts == other.posts and self.topics == other.topics

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

"""Reply-thread expansion behind pluggable platform adapters.

Live platform adapters (Reddit/Twitter/Scoop.it) drift with platform
markup and are intentionally out of the tested path; the supported
adapter replays recorded replies (FixtureThreadAdapter).
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from datetime import datetime, timezone

from .model import Post

# Query template for discovering curated tweet collections through a web
# search engine; hand the rendered query to whatever SERP adapter is in use.
MOMENTS_SITE_QUERY = "site:twitter.com/i/moments {query}"

_MIN_TS = datetime.min.replace(tzinfo=timezone.utc)


def moments_query(query: str) -> str:
    """Render the site-restricted search query for tweet-collection pages."""
    return MOMENTS_SITE_QUERY.format(query=query)


class ThreadAdapterError(Exception):
    """An adapter failed to produce replies for a post."""


class UnsupportedSourceError(ThreadAdapterError):
    """The adapter does not handle the post's source platform."""


class FixtureThreadAdapter:
    """Serves replies from an in-memory set of recorded posts.

    ``posts`` is any iterable of Post; children are keyed by parent_id.
    ``fail_on`` lists post ids whose reply lookup should raise, to model
    mid-expansion adapter failures in tests.
    """

    name = "fixture-threads"

    def __init__(self, posts, sources=None, fail_on=()):
        self._children: dict[str, list[Post]] = {}
        self._sources = frozenset(sources) if sources is not None else None
        self._fail_on = frozenset(fail_on)
        for post in posts:
            if post.parent_id is not None:
                self._children.setdefault(post.parent_id, []).append(post)

    def supports(self, source: str) -> bool:
        return self._sources is None or source in self._sources

    def replies(self, post: Post) -> list[Post]:
        if post.id in self._fail_on:
            raise ThreadAdapterError(f"simulated failure expanding {post.id}")
        return list(self._children.get(post.id, []))


def _reply_order(post: Post):
    return (post.created_at or _MIN_TS, post.id)


def expand_thread(root: Post, adapter, reply_limit: int, provenance=None) -> list[Post]:
    """Collect ``root`` plus up to ``reply_limit`` descendants, breadth-first.

    Replies are visited in (created_at, id) order, each id emitted at most
    once (cycles in the reply graph terminate). An adapter failure midway
    returns the partial thread and appends a warning entry to
    ``provenance`` when given.
    """
    if not root.serp_visible:
        raise ValueError(f"thread root {root.id} is not a SERP-visible post")
    if not adapter.supports(root.source):
        raise UnsupportedSourceError(
            f"adapter {getattr(adapter, 'name', adapter)!r} does not support source {root.source!r}"
        )
    if reply_limit < 0:
        raise ValueError("reply_limit must be >= 0")

    out = [root]
    seen = {root.id}
    queue = deque([root])
    while queue and len(out) < reply_limit + 1:
        node = queue.popleft()
        try:
            children = sorted(adapter.replies(node), key=_reply_order)
        except ThreadAdapterError as exc:
            if provenance is not None:
                provenance.append(
                    {
                        "adapter": getattr(adapter, "name", "thread-adapter"),
                        "warning": f"expansion of {root.id} stopped at {node.id}: {exc}",
                        "partial_count": len(out),
                    }
                )
            break
        for child in children:
            if child.id in seen:
                continue
            if child.parent_id is None:
                child = replace(child, parent_id=node.id)
            seen.add(child.id)
            out.append(child)
            queue.append(child)
            if len(out) == reply_limit + 1:
                break
    return out

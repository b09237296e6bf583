"""Reply-thread expansion behind a thread adapter.

An adapter is any object with a ``replies(post)`` method that returns
the post's direct replies and raises ThreadAdapterError when it cannot;
``expand_thread`` grows a SERP-visible root breadth-first through it.
The one adapter here, FixtureThreadAdapter, replays recorded replies,
so runs are reproducible; live platform adapters are out of scope.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from datetime import datetime, timezone

from .model import Post

_MIN_TS = datetime.min.replace(tzinfo=timezone.utc)


class ThreadAdapterError(Exception):
    """An adapter failed to produce replies for a post."""


class FixtureThreadAdapter:
    """Serves replies from an in-memory set of recorded posts.

    ``posts`` is any iterable of Post; children are keyed by parent_id.
    """

    name = "fixture-threads"

    def __init__(self, posts):
        self._children: dict[str, list[Post]] = {}
        for post in posts:
            if post.parent_id is not None:
                self._children.setdefault(post.parent_id, []).append(post)

    def replies(self, post: Post) -> list[Post]:
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

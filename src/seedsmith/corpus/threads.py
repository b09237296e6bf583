"""Reply-thread expansion from recorded replies.

``expand_thread`` grows a SERP-visible root breadth-first through the
recorded replies, grouped by the id of the post they reply to, so runs
are reproducible; live platform threads are out of scope.
"""

from __future__ import annotations

from collections import deque
from datetime import datetime, timezone

from .model import Post

_MIN_TS = datetime.min.replace(tzinfo=timezone.utc)


def reply_order(post: Post):
    """The (created_at, id) order replies are visited in; a post without
    created_at comes first."""
    return (post.created_at or _MIN_TS, post.id)


def expand_thread(root: Post, replies: dict[str, list[Post]], reply_limit: int) -> list[Post]:
    """Collect ``root`` plus up to ``reply_limit`` descendants, breadth-first.

    ``replies`` maps a post id to the recorded replies to that post.
    Replies are visited in (created_at, id) order, each id emitted at most
    once (cycles in the reply graph terminate).
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
        for child in sorted(replies.get(node.id, ()), key=reply_order):
            if child.id in seen:
                continue
            seen.add(child.id)
            out.append(child)
            queue.append(child)
            if len(out) == reply_limit + 1:
                break
    return out

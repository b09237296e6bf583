"""Reply forests and post-class segmentation.

Posts directly returned by a SERP form tree roots; their reply threads
are classified into groups by post count and author count:

- P1A1: the root post alone
- PnA1: a root-anchored chain of replies all written by the root author
- PnAn: the root plus all replies, when at least two authors took part

PnA1 and PnAn together form the micro-collection (MC): ``report_rows``
pools them into one row per topic, source and vertical. A root post
belongs to its P1A1 group and to the MC groups of its thread; pass
``mc_exclude_root=True`` for the alternative counting where MC groups
hold replies only. P1An groups (multi-author reference lists) never come
out of segmentation; the goldstandard module builds those.
"""

from __future__ import annotations

from typing import NamedTuple

from .corpus.model import Corpus, Post
from .corpus.threads import reply_order

P1A1 = "P1A1"
P1AN = "P1An"
PNA1 = "PnA1"
PNAN = "PnAn"
MC = "MC"
MC_MEMBER_CLASSES = (PNA1, PNAN)


class SegmentationError(Exception):
    pass


class PostGroup(NamedTuple):
    """A set of posts carrying exactly one post-class label; the key of the
    partition cell holding it gives its topic, source and vertical."""

    group_id: str
    post_class: str
    post_ids: tuple[str, ...]
    author_set: frozenset[str]

    def validate(self, include_root: bool = True) -> None:
        """Check the class-label size/author constraints.

        The constraints below assume root-inclusive membership; with
        ``mc_exclude_root`` the minimum sizes shift down by one post.
        """
        n_posts = len(self.post_ids)
        n_authors = len(self.author_set)
        min_mc = 2 if include_root else 1
        if self.post_class == P1A1 and n_posts != 1:
            raise SegmentationError(f"{self.group_id}: P1A1 groups hold exactly one post")
        if self.post_class == PNA1:
            if n_authors != 1 or n_posts < min_mc:
                raise SegmentationError(
                    f"{self.group_id}: PnA1 needs one author and >= {min_mc} posts "
                    f"(got {n_authors} authors, {n_posts} posts)"
                )
        if self.post_class == PNAN and include_root:
            if n_authors < 2 or n_posts < 2:
                raise SegmentationError(
                    f"{self.group_id}: PnAn needs >= 2 authors and >= 2 posts "
                    f"(got {n_authors} authors, {n_posts} posts)"
                )


class TreeNode:
    __slots__ = ("post", "children", "detached_key")

    def __init__(self, post: Post | None, detached_key: str | None = None):
        self.post = post  # None only on synthetic detached roots
        self.children: list[TreeNode] = []
        self.detached_key = detached_key  # missing parent id, for detached roots

    @property
    def is_detached_root(self) -> bool:
        return self.post is None

    def posts(self) -> list[Post]:
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.post is not None:
                out.append(node.post)
            stack.extend(reversed(node.children))
        return out

    def cell_post(self) -> Post:
        """Representative post for (topic, source, vertical) grouping."""
        if self.post is not None:
            return self.post
        return self.children[0].post


def _order_key(node: TreeNode):
    return reply_order(node.cell_post())


def build_forest(corpus: Corpus, *, only_topics=(), only_sources=(), only_verticals=(),
                 warnings=None) -> list[TreeNode]:
    """Arrange the selected posts into reply trees.

    A post is selected when its topic, source and vertical are each in
    ``only_topics``, ``only_sources`` and ``only_verticals``, an empty
    filter selecting every value. SERP-visible posts root their threads.
    A reply whose parent falls outside the selection goes under a
    synthetic detached root (one per missing parent), with a warning
    recorded. Children are ordered by (created_at, id) so the forest is
    reproducible.
    """
    selected = [
        p for p in corpus.posts.values()
        if (not only_topics or p.topic_id in only_topics)
        and (not only_sources or p.source in only_sources)
        and (not only_verticals or p.vertical in only_verticals)
    ]
    nodes = {p.id: TreeNode(p) for p in selected}

    roots: list[TreeNode] = []
    detached: dict[str, TreeNode] = {}
    for post in selected:
        node = nodes[post.id]
        if post.serp_visible:
            roots.append(node)
        elif post.parent_id is not None and post.parent_id in nodes:
            nodes[post.parent_id].children.append(node)
        else:
            # Orphan reply, or a parentless post that is not SERP-visible:
            # group under one synthetic root per missing parent.
            key = post.parent_id if post.parent_id is not None else post.id
            holder = detached.get(key)
            if holder is None:
                holder = TreeNode(None, detached_key=key)
                detached[key] = holder
            holder.children.append(node)
            if warnings is not None and post.parent_id is not None:
                warnings.append(
                    f"post {post.id}: parent {post.parent_id} not in selection; attached to detached root"
                )

    for node in nodes.values():
        node.children.sort(key=_order_key)
    for holder in detached.values():
        holder.children.sort(key=_order_key)

    forest = roots + list(detached.values())
    forest.sort(key=_order_key)
    return forest


def _maximal_self_chains(root: TreeNode) -> list[list[Post]]:
    """Root-anchored reply chains written entirely by the root author.

    Each returned chain starts at the root, follows one reply edge per
    step, and cannot be extended by another same-author reply. Chains of
    just the root (no same-author reply at all) are not returned. Chains
    come in depth-first order, children in tree order; the walk keeps an
    explicit stack, so chain depth is not bounded by the recursion limit.
    """
    author = root.post.author

    def same_author_replies(node: TreeNode) -> list[TreeNode]:
        return [c for c in node.children if c.post.author == author]

    chains: list[list[Post]] = []
    path = [root.post]  # the chain so far; pending[i] extends path[i]
    pending = [iter(same_author_replies(root))]
    while pending:
        child = next(pending[-1], None)
        if child is None:
            pending.pop()
            path.pop()
            continue
        path.append(child.post)
        replies = same_author_replies(child)
        if replies:
            pending.append(iter(replies))
        else:
            chains.append(list(path))
            path.pop()
    return chains


def classify_groups(tree: TreeNode, mc_exclude_root: bool = False) -> list[PostGroup]:
    """Emit the post-class groups of one reply tree.

    Total over valid trees: detached roots yield neither P1A1 nor PnA1
    groups, but their reply fragments can still form a PnAn group.
    """
    groups: list[PostGroup] = []
    all_posts = tree.posts()
    if not all_posts:
        return groups

    root_post = tree.post if not tree.is_detached_root else None
    root_prefix = root_post.id if root_post is not None else f"detached:{tree.detached_key}"

    if root_post is not None and root_post.serp_visible:
        groups.append(
            PostGroup(
                group_id=f"{root_post.id}/P1A1",
                post_class=P1A1,
                post_ids=(root_post.id,),
                author_set=frozenset([root_post.author]),
            )
        )
        for chain in _maximal_self_chains(tree):
            members = chain[1:] if mc_exclude_root else chain
            groups.append(
                PostGroup(
                    group_id=f"{root_post.id}/PnA1/{chain[-1].id}",
                    post_class=PNA1,
                    post_ids=tuple(p.id for p in members),
                    author_set=frozenset(p.author for p in members),
                )
            )

    replies = [p for p in all_posts if root_post is None or p.id != root_post.id]
    authors = {p.author for p in all_posts}
    if replies and len(authors) >= 2:
        members = replies if (mc_exclude_root or root_post is None) else all_posts
        groups.append(
            PostGroup(
                group_id=f"{root_prefix}/PnAn",
                post_class=PNAN,
                post_ids=tuple(p.id for p in members),
                author_set=frozenset(p.author for p in members),
            )
        )

    for group in groups:
        group.validate(include_root=not mc_exclude_root)
    return groups


CellKey = tuple[str, str, str, str]  # (topic_id, source, vertical, post_class)


def partition_corpus(corpus: Corpus, *, only_topics=(), only_sources=(), only_verticals=(),
                     mc_exclude_root: bool = False, warnings=None) -> dict[CellKey, list[PostGroup]]:
    """Group the selected posts (see ``build_forest``) into (topic,
    source, vertical, post class) cells.

    The result is deterministically ordered: cells sorted by key, groups
    in forest order within each cell. An empty selection yields an empty
    map.
    """
    forest = build_forest(corpus, only_topics=only_topics, only_sources=only_sources,
                          only_verticals=only_verticals, warnings=warnings)
    cells: dict[CellKey, list[PostGroup]] = {}
    for tree in forest:
        cell = tree.cell_post()
        for group in classify_groups(tree, mc_exclude_root=mc_exclude_root):
            key = (cell.topic_id, cell.source, cell.vertical, group.post_class)
            cells.setdefault(key, []).append(group)
    return {key: cells[key] for key in sorted(cells)}


def report_rows(cells) -> dict[CellKey, list[CellKey]]:
    """{row key: its member cell keys} for the report rows over ``cells``.

    Every cell is a row of its own, and each (topic, source, vertical)
    with a PnA1 or PnAn cell has an MC row pooling those cells. Rows and
    members are sorted; the member order fixes the order in which a
    row's seeds and observations pool.
    """
    rows: dict[CellKey, list[CellKey]] = {}
    for key in sorted(cells):
        rows[key] = [key]
        if key[3] in MC_MEMBER_CLASSES:
            rows.setdefault((*key[:3], MC), []).append(key)
    return {key: rows[key] for key in sorted(rows)}

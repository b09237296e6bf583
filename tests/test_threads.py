import pytest

from conftest import make_post
from seedsmith.corpus.threads import expand_thread


def by_parent(posts):
    """Recorded replies grouped by the id of the post they reply to."""
    replies = {}
    for post in posts:
        replies.setdefault(post.parent_id, []).append(post)
    return replies


def chain_replies(root_id, count, author="bob"):
    posts = []
    parent = root_id
    for i in range(count):
        post = make_post(id=f"{root_id}r{i}", parent_id=parent, author=author)
        posts.append(post)
        parent = post.id
    return posts


def test_small_thread_under_limit():
    root = make_post(id="root", serp_visible=True)
    replies = chain_replies("root", 3)
    thread = expand_thread(root, by_parent(replies), reply_limit=500)
    assert [p.id for p in thread] == ["root", "rootr0", "rootr1", "rootr2"]


def test_reply_limit_enforced():
    root = make_post(id="root", serp_visible=True)
    replies = [make_post(id=f"c{i}", parent_id="root") for i in range(10)]
    thread = expand_thread(root, by_parent(replies), reply_limit=5)
    assert len(thread) == 6
    assert thread[0].id == "root"


def test_cycle_terminates_each_id_once():
    root = make_post(id="root", serp_visible=True)
    a = make_post(id="a", parent_id="root")
    b = make_post(id="b", parent_id="a")
    cyclic = make_post(id="a", parent_id="b")  # b replies back to a
    thread = expand_thread(root, by_parent([a, b, cyclic]), reply_limit=500)
    ids = [p.id for p in thread]
    assert len(ids) == len(set(ids))
    assert set(ids) == {"root", "a", "b"}


def test_non_root_post_rejected():
    with pytest.raises(ValueError, match="not a SERP-visible"):
        expand_thread(make_post(id="x"), {}, 5)


def test_breadth_first_deterministic_order():
    root = make_post(id="root", serp_visible=True)
    posts = [
        make_post(id="z", parent_id="root"),
        make_post(id="a", parent_id="root"),
        make_post(id="a1", parent_id="a"),
    ]
    replies = by_parent(posts)
    first = [p.id for p in expand_thread(root, replies, 500)]
    second = [p.id for p in expand_thread(root, replies, 500)]
    assert first == second == ["root", "a", "z", "a1"]

import pytest

from conftest import make_post
from seedsmith.corpus.threads import FixtureThreadAdapter, ThreadAdapterError, expand_thread


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
    thread = expand_thread(root, FixtureThreadAdapter(replies), reply_limit=500)
    assert [p.id for p in thread] == ["root", "rootr0", "rootr1", "rootr2"]


def test_reply_limit_enforced():
    root = make_post(id="root", serp_visible=True)
    replies = [make_post(id=f"c{i}", parent_id="root") for i in range(10)]
    thread = expand_thread(root, FixtureThreadAdapter(replies), reply_limit=5)
    assert len(thread) == 6
    assert thread[0].id == "root"


def test_cycle_terminates_each_id_once():
    root = make_post(id="root", serp_visible=True)
    a = make_post(id="a", parent_id="root")
    b = make_post(id="b", parent_id="a")
    cyclic = make_post(id="a", parent_id="b")  # b replies back to a
    adapter = FixtureThreadAdapter([a, b, cyclic])
    thread = expand_thread(root, adapter, reply_limit=500)
    ids = [p.id for p in thread]
    assert len(ids) == len(set(ids))
    assert set(ids) == {"root", "a", "b"}


class FailingAdapter(FixtureThreadAdapter):
    """Replays recorded replies but fails on the posts in ``fail_on``."""

    def __init__(self, posts, fail_on):
        super().__init__(posts)
        self.fail_on = fail_on

    def replies(self, post):
        if post.id in self.fail_on:
            raise ThreadAdapterError(f"simulated failure expanding {post.id}")
        return super().replies(post)


def test_adapter_failure_yields_partial_with_warning():
    root = make_post(id="root", serp_visible=True)
    a = make_post(id="a", parent_id="root")
    b = make_post(id="b", parent_id="a")
    adapter = FailingAdapter([a, b], fail_on={"a"})
    provenance = []
    thread = expand_thread(root, adapter, reply_limit=500, provenance=provenance)
    assert [p.id for p in thread] == ["root", "a"]
    assert len(provenance) == 1
    assert "stopped at a" in provenance[0]["warning"]


def test_non_root_post_rejected():
    with pytest.raises(ValueError, match="not a SERP-visible"):
        expand_thread(make_post(id="x"), FixtureThreadAdapter([]), 5)


def test_breadth_first_deterministic_order():
    root = make_post(id="root", serp_visible=True)
    posts = [
        make_post(id="z", parent_id="root"),
        make_post(id="a", parent_id="root"),
        make_post(id="a1", parent_id="a"),
    ]
    adapter = FixtureThreadAdapter(posts)
    first = [p.id for p in expand_thread(root, adapter, 500)]
    second = [p.id for p in expand_thread(root, adapter, 500)]
    assert first == second == ["root", "a", "z", "a1"]

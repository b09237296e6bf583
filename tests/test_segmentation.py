import random
from datetime import datetime, timezone

from conftest import make_corpus, make_post
from test_reports import _random_corpus
from oracles import (
    brute_force_classify,
    classify_result_as_set,
    random_reply_tree,
    reference_self_chains,
)
from seedsmith.reports import partition_tables
from seedsmith.segmentation import (
    MC,
    P1A1,
    PNA1,
    PNAN,
    build_forest,
    classify_groups,
    partition_corpus,
    report_rows,
)
from seedsmith.segmentation import _maximal_self_chains


def forest_of(posts):
    return build_forest(make_corpus(posts))


def classify_posts(posts, **kw):
    forest = forest_of(posts)
    groups = []
    for tree in forest:
        groups.extend(classify_groups(tree, **kw))
    return groups


class TestClassifyExamples:
    def test_isolated_root(self):
        groups = classify_posts([make_post(id="r", serp_visible=True)])
        assert [(g.post_class, g.post_ids) for g in groups] == [(P1A1, ("r",))]

    def test_self_reply_thread(self):
        posts = [
            make_post(id="r", serp_visible=True, author="alice"),
            make_post(id="r1", parent_id="r", author="alice"),
            make_post(id="r2", parent_id="r1", author="alice"),
        ]
        groups = classify_posts(posts)
        assert {(g.post_class, g.post_ids) for g in groups} == {
            (P1A1, ("r",)),
            (PNA1, ("r", "r1", "r2")),
        }
        chain = next(g for g in groups if g.post_class == PNA1)
        assert chain.author_set == frozenset({"alice"})

    def test_multi_author_conversation(self):
        posts = [
            make_post(id="r", serp_visible=True, author="alice"),
            make_post(id="b", parent_id="r", author="bob"),
            make_post(id="c", parent_id="r", author="carol"),
        ]
        groups = classify_posts(posts)
        assert {(g.post_class, frozenset(g.post_ids)) for g in groups} == {
            (P1A1, frozenset({"r"})),
            (PNAN, frozenset({"r", "b", "c"})),
        }

    def test_scoopit_scoops_and_topic_page(self):
        posts = [
            make_post(id="s1", source="scoopit", vertical="scoops", serp_visible=True),
            make_post(id="s2", source="scoopit", vertical="scoops", serp_visible=True),
            make_post(id="page", source="scoopit", vertical="topics",
                      serp_visible=True, author="curator"),
            make_post(id="sc1", source="scoopit", vertical="topics",
                      parent_id="page", author="dana"),
            make_post(id="sc2", source="scoopit", vertical="topics",
                      parent_id="sc1", author="erin"),
        ]
        partition = partition_corpus(make_corpus(posts))
        cells = {k[3] for k in partition if k[2] == "topics"}
        assert cells == {P1A1, PNAN}
        assert {k[3] for k in partition if k[2] == "scoops"} == {P1A1}

    def test_self_chain_plus_other_authors_yields_both(self):
        posts = [
            make_post(id="r", serp_visible=True, author="alice"),
            make_post(id="s1", parent_id="r", author="alice"),
            make_post(id="x", parent_id="r", author="bob"),
        ]
        classes = sorted(g.post_class for g in classify_posts(posts))
        assert classes == [P1A1, PNA1, PNAN]

    def test_branching_self_chains_emit_one_group_each(self):
        posts = [
            make_post(id="r", serp_visible=True, author="alice"),
            make_post(id="c1", parent_id="r", author="alice"),
            make_post(id="c2", parent_id="r", author="alice"),
            make_post(id="c1a", parent_id="c1", author="alice"),
        ]
        chains = {g.post_ids for g in classify_posts(posts) if g.post_class == PNA1}
        assert chains == {("r", "c1", "c1a"), ("r", "c2")}

    def test_deep_self_chain_not_anchored_at_root_is_not_pna1(self):
        posts = [
            make_post(id="r", serp_visible=True, author="alice"),
            make_post(id="b", parent_id="r", author="bob"),
            make_post(id="b1", parent_id="b", author="bob"),
        ]
        groups = classify_posts(posts)
        assert {g.post_class for g in groups} == {P1A1, PNAN}


class TestDetached:
    def test_orphan_reply_attaches_to_detached_root_with_warning(self):
        # A reply whose root was edited out of the corpus file cannot be
        # built via make_corpus (integrity check), so drop the root after
        # validation to simulate a filtered-away parent.
        corpus = make_corpus(
            [
                make_post(id="r", serp_visible=True),
                make_post(id="x", parent_id="r", author="bob"),
            ]
        )
        del corpus.posts["r"]
        warnings = []
        forest = build_forest(corpus, warnings=warnings)
        assert len(forest) == 1
        assert forest[0].is_detached_root
        assert warnings and "detached" in warnings[0]

    def test_parentless_invisible_post_forms_detached_singleton(self):
        corpus = make_corpus([make_post(id="x", author="bob")])
        forest = build_forest(corpus)
        assert len(forest) == 1
        assert forest[0].is_detached_root
        assert classify_groups(forest[0]) == []

    def test_orphans_with_shared_missing_parent_form_pnan(self):
        corpus = make_corpus(
            [
                make_post(id="root", serp_visible=True, author="zoe"),
                make_post(id="a", parent_id="root", author="ann"),
                make_post(id="b", parent_id="root", author="ben"),
            ]
        )
        del corpus.posts["root"]
        forest = build_forest(corpus, warnings=[])
        groups = [g for t in forest for g in classify_groups(t)]
        assert [(g.post_class, frozenset(g.post_ids)) for g in groups] == [
            (PNAN, frozenset({"a", "b"}))
        ]
        assert groups[0].group_id == "detached:root/PnAn"

    def test_corpus_of_only_replies_yields_no_p1a1(self):
        corpus = make_corpus(
            [
                make_post(id="root", serp_visible=True, vertical="new"),
                make_post(id="a", parent_id="root", author="ann", vertical="new"),
                make_post(id="b", parent_id="a", author="ben", vertical="new"),
            ]
        )
        del corpus.posts["root"]
        warnings = []
        partition = partition_corpus(corpus, warnings=warnings)
        assert warnings, "orphan replies must be reported"
        assert not any(key[3] == P1A1 for key in partition)
        assert any(key[3] == PNAN for key in partition)


class TestForest:
    def test_single_tree_shape(self):
        posts = [
            make_post(id="r", serp_visible=True),
            make_post(id="a", parent_id="r"),
            make_post(id="b", parent_id="r"),
        ]
        forest = forest_of(posts)
        assert len(forest) == 1
        assert [c.post.id for c in forest[0].children] == ["a", "b"]

    def test_two_singleton_trees(self):
        forest = forest_of(
            [make_post(id="r1", serp_visible=True), make_post(id="r2", serp_visible=True)]
        )
        assert [t.post.id for t in forest] == ["r1", "r2"]

    def test_children_ordered_by_created_then_id(self):
        t0 = datetime(2018, 1, 1, tzinfo=timezone.utc)
        t1 = datetime(2018, 1, 2, tzinfo=timezone.utc)
        posts = [
            make_post(id="z", parent_id="r", created_at=t0),
            make_post(id="a", parent_id="r", created_at=t1),
            make_post(id="m", parent_id="r", created_at=t0),
            make_post(id="r", serp_visible=True),
        ]
        forest = forest_of(posts)
        assert [c.post.id for c in forest[0].children] == ["m", "z", "a"]

    def test_every_selected_post_appears_exactly_once(self):
        rng = random.Random(7)
        posts = [
            make_post(**kw) for kw in random_reply_tree(rng, max_posts=15)
        ]
        forest = forest_of(posts)
        seen = [p.id for t in forest for p in t.posts()]
        assert sorted(seen) == sorted(p.id for p in posts)


class TestPartition:
    def fixture_posts(self):
        return [
            # Tree 1: isolated root.
            make_post(id="r1", serp_visible=True, author="alice"),
            # Tree 2: self-thread.
            make_post(id="r2", serp_visible=True, author="carol"),
            make_post(id="r2a", parent_id="r2", author="carol"),
            # Tree 3: conversation.
            make_post(id="r3", serp_visible=True, author="dave"),
            make_post(id="r3a", parent_id="r3", author="erin"),
        ]

    def test_counts_match_brute_force(self):
        partition = partition_corpus(make_corpus(self.fixture_posts()))
        counts = {key[3]: len(groups) for key, groups in partition.items()}
        assert counts == {P1A1: 3, PNA1: 1, PNAN: 1}
        rows = partition_tables(partition)["partition"]["rows"]
        posts_by_class = {row[3]: row[5] for row in rows}
        assert posts_by_class == {P1A1: "3", PNA1: "2", PNAN: "2"}

    def test_empty_selection_is_empty_map(self):
        partition = partition_corpus(make_corpus(self.fixture_posts()), only_topics=("none",))
        assert partition == {}

    def test_determinism(self):
        corpus = make_corpus(self.fixture_posts())
        first = partition_corpus(corpus)
        second = partition_corpus(corpus)
        assert list(first) == list(second)
        assert first == second


class TestMcView:
    def test_counts_additive(self):
        posts = [
            make_post(id="r2", serp_visible=True, author="carol"),
            make_post(id="r2a", parent_id="r2", author="carol"),
            make_post(id="r3", serp_visible=True, author="dave"),
            make_post(id="r3a", parent_id="r3", author="erin"),
        ]
        partition = partition_corpus(make_corpus(posts))
        mc_rows = [key for key in report_rows(partition) if key[3] == MC]
        assert len(mc_rows) == 1
        mc_groups = [g for key in report_rows(partition)[mc_rows[0]] for g in partition[key]]
        n_pna1 = sum(len(gs) for key, gs in partition.items() if key[3] == PNA1)
        n_pnan = sum(len(gs) for key, gs in partition.items() if key[3] == PNAN)
        assert len(mc_groups) == n_pna1 + n_pnan == 2
        mc_posts = sum(len(g.post_ids) for g in mc_groups)
        assert mc_posts == 4
        pooled = {row[3]: row[4:] for row in partition_tables(partition)["partition_mc"]["rows"]}
        assert pooled[MC] == ["2", "4"]

    def test_empty_mc(self):
        partition = partition_corpus(make_corpus([make_post(id="r", serp_visible=True)]))
        assert not any(key[3] == MC for key in report_rows(partition))
        pooled = partition_tables(partition)["partition_mc"]["rows"]
        assert not any(row[3] == MC for row in pooled)


class TestReportRows:
    def test_rows_over_random_partitions(self):
        rng = random.Random(23)
        mc_rows_seen = 0
        for trial in range(25):
            partition = partition_corpus(_random_corpus(rng), mc_exclude_root=trial % 2 == 1)
            rows = report_rows(partition)
            assert list(rows) == sorted(rows)
            assert all(members == sorted(members) for members in rows.values())
            for key in partition:
                assert rows[key] == [key]
            mc_rows = {key: members for key, members in rows.items() if key[3] == MC}
            assert set(rows) == set(partition) | set(mc_rows)
            scopes = {key[:3] for key in partition if key[3] in (PNA1, PNAN)}
            assert {key[:3] for key in mc_rows} == scopes
            for row_key, members in mc_rows.items():
                assert members == sorted(
                    key for key in partition if key[:3] == row_key[:3] and key[3] in (PNA1, PNAN)
                )
            mc_rows_seen += len(mc_rows)

            tables = partition_tables(partition)
            counts = {tuple(row[:4]): [int(n) for n in row[4:]]
                      for row in tables["partition"]["rows"]}
            assert counts == {
                key: [len(groups), sum(len(g.post_ids) for g in groups)]
                for key, groups in partition.items()
            }
            pooled = {tuple(row[:4]): [int(n) for n in row[4:]]
                      for row in tables["partition_mc"]["rows"]}
            assert list(pooled) == [key for key in rows if key[3] not in (PNA1, PNAN)]
            for row_key, got in pooled.items():
                assert got == [sum(counts[key][i] for key in rows[row_key]) for i in (0, 1)]
        assert mc_rows_seen


class TestMcExcludeRoot:
    def test_groups_hold_replies_only(self):
        posts = [
            make_post(id="r", serp_visible=True, author="alice"),
            make_post(id="s", parent_id="r", author="alice"),
            make_post(id="x", parent_id="r", author="bob"),
        ]
        groups = classify_posts(posts, mc_exclude_root=True)
        by_class = {g.post_class: g.post_ids for g in groups}
        assert by_class[P1A1] == ("r",)
        assert by_class[PNA1] == ("s",)
        assert by_class[PNAN] == ("s", "x")

    def test_oracle_equivalence_exclude_root(self):
        rng = random.Random(42)
        for _ in range(100):
            posts = [make_post(**kw) for kw in random_reply_tree(rng)]
            got = classify_result_as_set(classify_posts(posts, mc_exclude_root=True))
            want = brute_force_classify(posts, mc_exclude_root=True)
            assert got == want


class TestInvariants:
    def test_every_visible_root_yields_one_p1a1(self):
        rng = random.Random(11)
        for _ in range(50):
            posts = [make_post(**kw) for kw in random_reply_tree(rng)]
            groups = classify_posts(posts)
            p1a1 = [g for g in groups if g.post_class == P1A1]
            assert len(p1a1) == 1
            assert p1a1[0].post_ids == (posts[0].id,)

    def test_group_author_constraints_hold(self):
        rng = random.Random(13)
        for _ in range(100):
            posts = [make_post(**kw) for kw in random_reply_tree(rng)]
            for g in classify_posts(posts):
                if g.post_class == PNA1:
                    assert len(g.author_set) == 1
                    assert len(g.post_ids) >= 2
                if g.post_class == PNAN:
                    assert len(g.author_set) >= 2
                    assert len(g.post_ids) >= 2

    def test_oracle_equivalence_sample(self):
        rng = random.Random(99)
        for _ in range(200):
            posts = [make_post(**kw) for kw in random_reply_tree(rng)]
            got = classify_result_as_set(classify_posts(posts))
            want = brute_force_classify(posts)
            assert got == want


class TestDeepChains:
    def deep_chain(self, length, author="chainer"):
        posts = [make_post(id="c0", serp_visible=True, author=author)]
        for i in range(1, length):
            posts.append(make_post(id=f"c{i}", parent_id=f"c{i - 1}", author=author))
        return posts

    def test_1200_post_self_chain_matches_brute_force(self):
        posts = self.deep_chain(1200)
        groups = classify_posts(posts)
        assert classify_result_as_set(groups) == brute_force_classify(posts)
        sizes = sorted((g.post_class, len(g.post_ids)) for g in groups)
        assert sizes == [(P1A1, 1), (PNA1, 1200)]

    def test_1200_post_self_chain_excluding_root(self):
        posts = self.deep_chain(1200)
        got = classify_result_as_set(classify_posts(posts, mc_exclude_root=True))
        assert got == brute_force_classify(posts, mc_exclude_root=True)

    def test_deep_chain_partitions(self):
        partition = partition_corpus(make_corpus(self.deep_chain(1200)))
        rows = {row[3]: row[4:] for row in partition_tables(partition)["partition"]["rows"]}
        assert rows == {P1A1: ["1", "1"], PNA1: ["1", "1200"]}

    def test_chain_order_matches_recursive_growth(self):
        rng = random.Random(5)
        for _ in range(200):
            posts = [make_post(**kw) for kw in random_reply_tree(rng, max_posts=25, max_authors=2)]
            tree = forest_of(posts)[0]
            got = [[p.id for p in chain] for chain in _maximal_self_chains(tree)]
            want = [[p.id for p in chain] for chain in reference_self_chains(tree)]
            assert got == want

import random
from datetime import date, datetime, timezone

import pytest

from conftest import RETRIEVED, distribution_column, make_corpus, make_post
from oracles import days_from_civil, distinct_count, quantiles_inclusive
from seedsmith.analytics import (
    DAYS_PER_YEAR,
    DEFAULT_RELEVANCE_THRESHOLD,
    MODE_LITERAL,
    MODE_NORMALIZED,
    age_days,
    age_distribution,
    class_average_precision,
    conditional_relevance_by_k,
    estimate_publication_date,
    hostname_diversity,
    judge_relevance,
    k_bin,
    serp_overlap,
)
from seedsmith.corpus.fetch import Fetcher, FetchResult, FixtureTransport, write_fixture
from seedsmith.extraction import HTML_KIND, SeedCollection, SeedUri
from seedsmith.goldstandard import GoldStandard, build_term_vector
from seedsmith.pages import digest_page
from seedsmith.reports import collect_observations, judge_seeds
from seedsmith.textkernel import sparse_cosine


def gold_of(weights=None, text=None):
    return GoldStandard(
        topic_id="t1",
        vector=build_term_vector([text]) if text is not None else weights,
        reference_uris=("https://ref.example/a",),
        failures=(),
        built_at=RETRIEVED,
    )


class TestCosine:
    def test_identical_vectors(self):
        v = {"flood": 0.7, "river": 0.3}
        assert sparse_cosine(v, v) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_vectors(self):
        assert sparse_cosine({"a": 1.0}, {"b": 1.0}) == 0.0

    def test_hand_computed(self):
        got = sparse_cosine({"a": 0.5, "b": 0.5}, {"a": 1.0})
        assert got == pytest.approx(0.7071, abs=1e-4)

    def test_empty_vector(self):
        assert sparse_cosine({}, {"a": 1.0}) == 0.0

    def test_accepts_term_vectors(self):
        tv = build_term_vector(["flood river"])
        assert sparse_cosine(tv, tv) == pytest.approx(1.0)

    def test_scale_invariance_random(self):
        rng = random.Random(5)
        for _ in range(100):
            a = {f"w{i}": rng.uniform(0.01, 5) for i in range(rng.randint(1, 12))}
            b = {f"w{i}": rng.uniform(0.01, 5) for i in range(rng.randint(1, 12))}
            base = sparse_cosine(a, b)
            ka, kb = rng.uniform(0.1, 100), rng.uniform(0.1, 100)
            scaled = sparse_cosine(
                {t: w * ka for t, w in a.items()}, {t: w * kb for t, w in b.items()}
            )
            assert scaled == pytest.approx(base, abs=1e-9)


class TestJudgeRelevance:
    def test_copy_of_gold_text_is_relevant(self):
        text = "flood waters rose across riverbend as the levee gave way"
        judgment = judge_relevance(build_term_vector([text]), gold_of(text=text))
        assert judgment.relevant
        assert judgment.cosine == pytest.approx(1.0)

    def test_unrelated_text_is_not_relevant(self):
        gold = gold_of(text="flood waters rose across riverbend levee")
        judgment = judge_relevance(build_term_vector(["quantum chess tournament bracket results"]), gold)
        assert not judgment.relevant
        assert judgment.cosine == 0.0

    def test_exact_threshold_is_not_relevant(self):
        # Engineered exact cosine of 0.25: sixteen equal gold terms
        # (norm = 1/4) against a single shared term.
        gold = gold_of(weights={f"term{i:02d}": 1 / 16 for i in range(16)})
        judgment = judge_relevance(build_term_vector(["term00 term00"]), gold)
        assert judgment.cosine == 0.25
        assert not judgment.relevant

    def test_just_above_threshold_is_relevant(self):
        gold = gold_of(weights={f"term{i:02d}": 1 / 16 for i in range(16)})
        judgment = judge_relevance(build_term_vector(["term00 term01 term00 term01"]), gold)
        assert judgment.cosine > 0.25
        assert judgment.relevant

    def test_empty_candidate_flagged(self):
        judgment = judge_relevance(build_term_vector([""]), gold_of(text="flood"))
        assert judgment.empty
        assert judgment.cosine == 0.0
        assert not judgment.relevant

    def test_threshold_configurable(self):
        gold = gold_of(text="flood levee")
        judgment = judge_relevance(build_term_vector(["flood unrelated words here"]), gold, threshold=0.99)
        assert not judgment.relevant


def seed(canonical, post_id="p1", kind=HTML_KIND):
    return SeedUri(
        canonical=canonical,
        hostname=canonical.split("/")[2],
        kind=kind,
        post_id=post_id,
        retrieved_at=RETRIEVED,
    )


class TestPostPrecision:
    GOLD = None

    @classmethod
    def setup_class(cls):
        cls.GOLD = gold_of(text="flood waters riverbend levee rainfall")

    @pytest.fixture(autouse=True)
    def fixtures(self, tmp_path):
        self.fixtures = tmp_path

    def texts(self, mapping):
        """A fetcher serving each URI as a page whose main text is its
        mapped text."""
        for uri, text in mapping.items():
            write_fixture(self.fixtures, uri, 200, {"Content-Type": "text/html"}, f"<p>{text}</p>".encode())
        return Fetcher(FixtureTransport(self.fixtures))

    def precision(self, seeds, texts, kind="all"):
        """Precision of the one post holding ``seeds``, as the report
        observes it."""
        key = ("t1", "reddit", "top", "P1A1")
        collections = {key: SeedCollection(seeds=tuple(seeds), post_seeds=tuple(seeds))}
        warnings = []
        judgments, _dates = judge_seeds(make_corpus([make_post(id="p1")]), collections, {"t1": self.GOLD}, texts,
                                        warnings, threshold=DEFAULT_RELEVANCE_THRESHOLD)
        assert warnings == []
        [observation] = collect_observations(collections, judgments)[key]
        return observation.precision[kind]

    def test_half_relevant(self):
        seeds = [seed("https://a.example/1"), seed("https://a.example/2")]
        texts = self.texts(
            {
                "https://a.example/1": "flood waters riverbend levee rainfall",
                "https://a.example/2": "quantum chess bracket",
            }
        )
        assert self.precision(seeds, texts) == 0.5

    def test_all_relevant(self):
        seeds = [seed("https://a.example/1")]
        texts = self.texts({"https://a.example/1": "flood waters riverbend"})
        assert self.precision(seeds, texts) == 1.0

    def test_one_of_three(self):
        seeds = [seed(f"https://a.example/{i}") for i in range(3)]
        texts = self.texts(
            {
                "https://a.example/0": "flood waters riverbend levee",
                "https://a.example/1": "cats",
                "https://a.example/2": "dogs",
            }
        )
        assert self.precision(seeds, texts) == pytest.approx(1 / 3)

    def test_empty_seeds_undefined(self):
        seeds = [seed("https://a.example/1")]
        texts = self.texts({"https://a.example/1": "flood waters riverbend"})
        assert self.precision(seeds, texts, kind="non_html") is None


class TestClassAveragePrecision:
    def test_mean(self):
        assert class_average_precision([1.0, 0.0]).average == 0.5
        assert class_average_precision([1.0, 0.0]).post_count == 2

    def test_single(self):
        assert class_average_precision([0.7]).average == pytest.approx(0.7)

    def test_four_posts(self):
        summary = class_average_precision([1, 1, 0, 0.5])
        assert summary.average == pytest.approx(0.625)
        assert summary.post_count == 4

    def test_no_posts_is_na(self):
        assert class_average_precision([]) is None
        assert class_average_precision([None, None]) is None

    def test_range_and_monotonicity(self):
        rng = random.Random(31)
        for _ in range(100):
            values = [rng.random() for _ in range(rng.randint(1, 20))]
            summary = class_average_precision(values)
            assert 0.0 <= summary.average <= 1.0
            grown = class_average_precision(values + [1.0])
            assert grown.average >= summary.average
            assert grown.average <= 1.0


def collection_of(counts_by_post, topic="t1", source="reddit", vertical="top",
                  post_class="P1A1"):
    """A cell whose posts each carry the given number of HTML seeds."""
    key = (topic, source, vertical, post_class)
    seeds = []
    for post_id, n in counts_by_post.items():
        for j in range(n):
            seeds.append(
                seed(f"https://h{post_id}{j}.example/{topic}/{post_id}/{j}", post_id=post_id)
            )
    return key, SeedCollection(seeds=tuple(seeds), post_seeds=tuple(seeds))


class TestKBins:
    def test_bins(self):
        assert [k_bin(k) for k in (1, 2, 3, 4, 5, 9)] == ["1", "2", "3-4", "3-4", "5+", "5+"]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            k_bin(0)


class TestDistribution:
    def single_topic(self):
        key, coll = collection_of({"a": 1, "b": 1, "c": 2, "d": 5})
        return {key: coll}

    def two_topics(self):
        k1, c1 = collection_of({"a": 1, "b": 1, "c": 2, "d": 5}, topic="tA")
        k2, c2 = collection_of({"e": 1, "f": 3}, topic="tB")
        return {k1: c1, k2: c2}

    def test_single_topic_modes_agree(self):
        for mode in (MODE_NORMALIZED, MODE_LITERAL):
            column = distribution_column(
                self.single_topic(), source="reddit", scope="P1A1", kind="html", mode=mode
            )
            assert column.probabilities["1"] == pytest.approx(0.5)
            assert column.probabilities["2"] == pytest.approx(0.25)
            assert column.probabilities["3-4"] == pytest.approx(0.0)
            assert column.probabilities["5+"] == pytest.approx(0.25)

    def test_two_topic_literal_vs_normalized(self):
        literal = distribution_column(
            self.two_topics(), source="reddit", scope="P1A1", kind="html", mode=MODE_LITERAL
        )
        assert literal.probabilities["1"] == pytest.approx(1.0)  # 2/4 + 1/2
        assert sum(literal.probabilities.values()) == pytest.approx(2.0)  # topic count
        normalized = distribution_column(
            self.two_topics(), source="reddit", scope="P1A1", kind="html", mode=MODE_NORMALIZED
        )
        assert normalized.probabilities["1"] == pytest.approx(0.5)  # 3/6
        assert sum(normalized.probabilities.values()) == pytest.approx(1.0, abs=1e-9)

    def test_kind_filter_excludes_other_kinds(self):
        key, coll = collection_of({"a": 2})
        extra = seed("https://files.example/doc.pdf", post_id="a", kind="non_html")
        coll = SeedCollection(seeds=coll.seeds + (extra,), post_seeds=coll.seeds + (extra,))
        html_col = distribution_column({key: coll}, source="reddit", scope="P1A1", kind="html")
        assert html_col.probabilities["2"] == 1.0
        all_col = distribution_column({key: coll}, source="reddit", scope="P1A1", kind=None)
        assert all_col.probabilities["3-4"] == 1.0

    def test_empty_scope_is_na(self):
        column = distribution_column(
            self.single_topic(), source="reddit", scope="PnAn", kind="html"
        )
        assert column.is_na

    def test_mc_scope_pools_member_classes(self):
        k1, c1 = collection_of({"a": 1}, post_class="PnA1")
        k2, c2 = collection_of({"b": 2}, post_class="PnAn")
        column = distribution_column({k1: c1, k2: c2}, source="reddit", scope="MC", kind="html")
        assert column.probabilities["1"] == pytest.approx(0.5)
        assert column.probabilities["2"] == pytest.approx(0.5)
        assert column.post_count == 2

    def test_all_scope_counts_class_occurrences(self):
        k1, c1 = collection_of({"a": 1}, post_class="P1A1")
        k2, c2 = collection_of({"a": 1, "b": 1}, post_class="PnAn")
        column = distribution_column({k1: c1, k2: c2}, source="reddit", scope="All", kind="html")
        assert column.post_count == 3

    def test_k_uses_per_post_stream_not_collection_dedup(self):
        shared = seed("https://shared.example/x", post_id="a")
        also_b = seed("https://shared.example/x", post_id="b")
        only_b = seed("https://b-only.example/y", post_id="b")
        key = ("t1", "reddit", "top", "P1A1")
        coll = SeedCollection(
            seeds=(shared, only_b),  # collection-level dedup dropped b's copy
            post_seeds=(shared, also_b, only_b),
        )
        column = distribution_column({key: coll}, source="reddit", scope="P1A1", kind="html")
        assert column.post_count == 2
        assert column.probabilities["1"] == pytest.approx(0.5)  # post a
        assert column.probabilities["2"] == pytest.approx(0.5)  # post b


class TestConditionalRelevance:
    def test_mean_by_bin(self):
        table = conditional_relevance_by_k([(1, 1.0), (1, 0.0), (1, 1.0)])
        assert table["1"].average == pytest.approx(2 / 3, abs=1e-3)
        assert table["1"].post_count == 3

    def test_single_post_bin(self):
        table = conditional_relevance_by_k([(3, 0.4)])
        assert table["3-4"].average == pytest.approx(0.4)
        assert table["3-4"].post_count == 1

    def test_empty_bin_is_na(self):
        table = conditional_relevance_by_k([(1, 1.0)])
        assert table["5+"] is None


def fetch_result(body=b"", uri="https://news.example/story", headers=None):
    headers = {k.lower(): v for k, v in (headers or {}).items()}
    return FetchResult(
        request_uri=uri,
        final_uri=uri,
        status=200,
        media_type=headers.get("content-type", "text/html"),
        headers=headers,
        body=body,
        fetched_at=RETRIEVED,
    )


def estimate(fetch):
    """The date chain over ``fetch`` and its page digest."""
    return estimate_publication_date(fetch, digest_page(fetch.body))


class TestPublicationDate:
    def test_meta_published_time(self):
        page = b'<html><head><meta property="article:published_time" content="2014-08-08"></head><body><p>x</p></body></html>'
        got = estimate(fetch_result(page))
        assert got == (date(2014, 8, 8), "metadata")

    def test_meta_with_datetime_value(self):
        page = b'<html><head><meta property="article:published_time" content="2014-08-08T10:22:33Z"></head></html>'
        assert estimate(fetch_result(page))[0] == date(2014, 8, 8)

    def test_json_ld(self):
        page = b'<html><head><script type="application/ld+json">{"@type":"Article","datePublished":"2017-03-02T08:00:00Z"}</script></head></html>'
        assert estimate(fetch_result(page)) == (date(2017, 3, 2), "metadata")

    def test_uri_path_pattern(self):
        got = estimate(
            fetch_result(b"<html><body>x</body></html>", uri="https://news.example/2016/01/05/story")
        )
        assert got == (date(2016, 1, 5), "uri-path")

    def test_uri_path_month_only(self):
        got = estimate(
            fetch_result(b"<html></html>", uri="https://news.example/2016/07/archive")
        )
        assert got == (date(2016, 7, 1), "uri-path")

    def test_last_modified_header(self):
        got = estimate(
            fetch_result(b"<html></html>", headers={"Last-Modified": "Fri, 08 Aug 2014 12:00:00 GMT"})
        )
        assert got == (date(2014, 8, 8), "last-modified")

    @pytest.mark.parametrize(
        "value", ["not a date", "Fri, 31 Dec 99999999999999999999 23:59:59 GMT"],
        ids=["unparsable", "year-overflows"],
    )
    def test_unusable_last_modified_gives_no_estimate(self, value):
        assert estimate(fetch_result(b"<html></html>", headers={"Last-Modified": value})) is None

    def test_bare_page_has_no_estimate(self):
        assert estimate(fetch_result(b"<html><body>x</body></html>")) is None

    def test_metadata_wins_over_path(self):
        page = b'<html><head><meta property="article:published_time" content="2014-08-08"></head></html>'
        got = estimate(
            fetch_result(page, uri="https://news.example/2016/01/05/story")
        )
        assert got == (date(2014, 8, 8), "metadata")

    def test_invalid_calendar_dates_ignored(self):
        got = estimate(
            fetch_result(b"<html></html>", uri="https://news.example/2016/13/99/story")
        )
        assert got is None


class TestAges:
    def sample(self, pub, retrieved=RETRIEVED):
        return age_days(pub, retrieved)

    def test_median_of_three(self):
        samples = [self.sample(d) for d in (date(2018, 10, 27), date(2018, 10, 17), date(2018, 10, 7))]
        # ages are 10, 20, 30 days
        summary = age_distribution(samples)
        assert summary.median * DAYS_PER_YEAR == pytest.approx(20.0)
        assert summary.minimum * DAYS_PER_YEAR == pytest.approx(10.0)
        assert summary.maximum * DAYS_PER_YEAR == pytest.approx(30.0)

    def test_years_hand_value(self):
        days = self.sample(date(2014, 8, 1))
        assert days == pytest.approx(1558.0)
        assert days / DAYS_PER_YEAR == pytest.approx(4.27, abs=0.01)

    def test_day_count_against_calendar_free_oracle(self):
        rng = random.Random(17)
        for _ in range(100):
            pub = date(rng.randint(1995, 2018), rng.randint(1, 12), rng.randint(1, 28))
            retrieved = datetime(
                rng.randint(2018, 2020), rng.randint(1, 12), rng.randint(1, 28),
                tzinfo=timezone.utc,
            )
            oracle_days = days_from_civil(
                retrieved.year, retrieved.month, retrieved.day
            ) - days_from_civil(pub.year, pub.month, pub.day)
            assert age_days(pub, retrieved) == pytest.approx(oracle_days)

    def test_negative_age_flagged_and_excluded(self):
        future = self.sample(date(2019, 1, 1))
        assert future < 0
        ok = self.sample(date(2018, 10, 1))
        summary = age_distribution([future, ok])
        assert summary.sample_count == 1

    def test_all_flagged_is_na(self):
        assert age_distribution([self.sample(date(2019, 1, 1))]) is None

    def test_quartiles_match_stdlib_inclusive(self):
        rng = random.Random(3)
        for _ in range(50):
            samples = [
                self.sample(date(rng.randint(2000, 2018), rng.randint(1, 12), rng.randint(1, 28)))
                for _ in range(rng.randint(1, 30))
            ]
            summary = age_distribution(samples)
            ages = sorted(days / DAYS_PER_YEAR for days in samples if days >= 0)
            if not ages:
                assert summary is None
                continue
            q1, median, q3 = quantiles_inclusive(ages)
            assert summary.q1 == pytest.approx(q1)
            assert summary.median == pytest.approx(median)
            assert summary.q3 == pytest.approx(q3)

    def test_ecdf_points(self):
        samples = [self.sample(d) for d in (date(2018, 10, 27), date(2018, 10, 27), date(2018, 10, 17))]
        summary = age_distribution(samples)
        fractions = [f for _, f in summary.ecdf]
        values = [v for v, _ in summary.ecdf]
        assert fractions == [pytest.approx(2 / 3), pytest.approx(1.0)]
        assert values == sorted(values)


class TestDiversity:
    def test_single_host_zero(self):
        assert hostname_diversity(["www.cnn.com"] * 3) == 0.0

    def test_all_distinct_one(self):
        assert hostname_diversity(["a.example", "b.example", "c.example"]) == 1.0

    def test_intermediate(self):
        assert hostname_diversity(["a.example", "a.example", "b.example"]) == 0.5

    def test_small_collections_na(self):
        assert hostname_diversity([]) is None
        assert hostname_diversity(["a.example"]) is None

    def test_formula_matches_set_size_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            hosts = [f"h{rng.randint(1, 8)}.example" for _ in range(rng.randint(2, 30))]
            got = hostname_diversity(hosts)
            want = (distinct_count(hosts) - 1) / (len(hosts) - 1)
            assert got == pytest.approx(want)


class TestOverlap:
    def test_disjoint(self):
        assert serp_overlap(["https://a.example/1"], ["https://b.example/2"]) == 0.0

    def test_subset_is_one(self):
        reference = ["https://a.example/1", "https://b.example/2", "https://c.example/3"]
        candidate = ["https://a.example/1", "https://b.example/2"]
        assert serp_overlap(reference, candidate) == 1.0

    def test_partial(self):
        reference = ["https://u1.example/", "https://u2.example/"]
        candidate = ["https://u2.example/", "https://u3.example/", "https://u4.example/"]
        assert serp_overlap(reference, candidate) == pytest.approx(1 / 3)

    def test_empty_candidate_na(self):
        assert serp_overlap(["https://a.example/"], []) is None

    def test_self_overlap_is_one(self):
        c = ["https://a.example/1", "https://b.example/2"]
        assert serp_overlap(c, c) == 1.0

    def test_invariant_under_recanonicalization(self):
        from seedsmith.extraction import canonicalize

        uris = ["https://a.example/x?b=2&a=1", "https://b.example/"]
        once = {canonicalize(u) for u in uris}
        twice = {canonicalize(u) for u in once}
        assert serp_overlap(once, twice) == 1.0

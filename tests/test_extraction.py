import ipaddress
from urllib.parse import urlsplit, urlunsplit

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus, make_post
from oracles import reference_assemble_collections, reference_substitute_intra_site
from seedsmith.corpus.fetch import (
    TAG_MISSING_FIXTURE,
    FetchError,
    FetchPolicy,
    Fetcher,
    FixtureTransport,
    TransportError,
    write_fixture,
)
from seedsmith.extraction import (
    AssembleOptions,
    CanonicalizationError,
    ExtractionError,
    HTML_KIND,
    NON_HTML_KIND,
    assemble_collections,
    canonicalize,
    classify_uri_kind,
    extract_uris,
    hostname_of,
    intra_site_source,
    substitute_intra_site,
)
from seedsmith.segmentation import partition_corpus


class TestExtractUris:
    def test_text_link(self):
        post = make_post(text="see https://a.example/x")
        assert extract_uris(post) == ["https://a.example/x"]

    def test_raw_links_only(self):
        post = make_post(raw_links=("https://b.example",))
        assert extract_uris(post) == ["https://b.example"]

    def test_raw_links_come_before_text_links(self):
        post = make_post(raw_links=("https://b.example",), text="and https://a.example")
        assert extract_uris(post) == ["https://b.example", "https://a.example"]

    def test_duplicates_preserved(self):
        post = make_post(text="https://a.example/x https://a.example/x")
        assert extract_uris(post) == ["https://a.example/x"] * 2

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("go to https://a.example/x).", "https://a.example/x"),
            ("(https://a.example/x)", "https://a.example/x"),
            ("https://a.example/x, and more", "https://a.example/x"),
            ("https://a.example/x?q=1;", "https://a.example/x?q=1"),
            ("'https://a.example/x'", "https://a.example/x"),
            ("https://en.example/wiki/Foo_(bar) rocks", "https://en.example/wiki/Foo_(bar)"),
            ("<https://a.example/x>", "https://a.example/x"),
        ],
    )
    def test_trailing_punctuation_trimmed(self, text, expected):
        assert extract_uris(make_post(text=text)) == [expected]

    def test_link_free_post(self):
        assert extract_uris(make_post(text="no links here")) == []


_LABEL = st.text(alphabet="abcxyzABC019-", min_size=1, max_size=6).filter(
    lambda label: not label.startswith("-") and not label.endswith("-")
)
_IDN_LABEL = st.text(alphabet="abcäöüßéñÅÉкиїДΩ中文字", min_size=1, max_size=5)
_IPV6 = st.integers(0, 2**128 - 1).map(
    lambda n: ipaddress.IPv6Address(n)
).flatmap(lambda addr: st.sampled_from([addr.compressed, addr.exploded, addr.compressed.upper()]))
_HOSTS = st.one_of(
    st.lists(_LABEL, min_size=1, max_size=3).map(".".join),
    st.lists(_IDN_LABEL, min_size=1, max_size=3).map(lambda labels: ".".join(labels) + ".example"),
    st.tuples(*[st.integers(0, 255)] * 4).map(lambda octets: ".".join(map(str, octets))),
    _IPV6.map(lambda addr: f"[{addr}]"),
)
_USERINFO = st.one_of(
    st.just(""),
    st.builds(
        lambda user, password: f"{user}:{password}@" if password else f"{user}@",
        st.text(alphabet="abcXYZ019._~-", min_size=1, max_size=6),
        st.text(alphabet="abcXYZ019._~-", max_size=6),
    ),
)
URIS = st.builds(
    lambda scheme, userinfo, host, port, path, query, fragment: (
        f"{scheme}://{userinfo}{host}{port}{path}{query}{fragment}"
    ),
    st.sampled_from(["http", "https", "HTTP", "Https"]),
    _USERINFO,
    _HOSTS,
    st.one_of(st.just(""), st.integers(0, 65535).map(lambda port: f":{port}")),
    st.text(alphabet="abc/%20-._~", max_size=10).map(lambda path: "/" + path),
    st.one_of(st.just(""), st.text(alphabet="abc=&", max_size=8).map(lambda q: "?" + q)),
    st.one_of(st.just(""), st.text(alphabet="abc", max_size=4).map(lambda f: "#" + f)),
)


class TestCanonicalize:
    def test_case_port_fragment(self):
        assert canonicalize("HTTPS://WWW.CNN.com:443/a#top") == "https://www.cnn.com/a"

    def test_tracking_params_stripped(self):
        assert canonicalize("https://x.example/p?utm_source=t&id=2") == "https://x.example/p?id=2"
        assert canonicalize("https://x.example/p?fbclid=abc&gclid=1") == "https://x.example/p"

    def test_query_params_sorted(self):
        assert canonicalize("https://x.example/p?b=2&a=1") == "https://x.example/p?a=1&b=2"

    def test_non_default_port_kept(self):
        assert canonicalize("http://x.example:8080/a") == "http://x.example:8080/a"
        assert canonicalize("http://x.example:80/a") == "http://x.example/a"

    def test_trailing_slash_on_empty_path(self):
        assert canonicalize("https://x.example/") == "https://x.example"
        assert canonicalize("https://x.example/a/") == "https://x.example/a/"

    @pytest.mark.parametrize("bad", ["mailto:a@b.c", "ftp://x.example/f", "not a uri", "", "http://"])
    def test_rejects_non_http(self, bad):
        with pytest.raises(CanonicalizationError):
            canonicalize(bad)

    @pytest.mark.parametrize(
        "uri",
        [
            "https://x.example/p?utm_source=t&b=2&a=1#frag",
            "HTTP://User:Pw@X.example:80/Path/?z=1&y=",
            "https://x.example",
            "https://x.example/a%20b?q=a+b",
        ],
    )
    def test_idempotent_on_fixtures(self, uri):
        once = canonicalize(uri)
        assert canonicalize(once) == once

    @given(
        st.builds(
            lambda host, path, q: f"https://{host}.example/{path}?{q}",
            st.text(alphabet="abcxyz", min_size=1, max_size=8),
            st.text(alphabet="abc/().,", max_size=12),
            st.text(alphabet="abc=&_", max_size=12),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent_random(self, uri):
        try:
            once = canonicalize(uri)
        except CanonicalizationError:
            return
        assert canonicalize(once) == once
        assert once.startswith(("http://", "https://"))

    @pytest.mark.parametrize(
        "uri,expected,host",
        [
            ("http://[2001:db8::1]/x", "http://[2001:db8::1]/x", "2001:db8::1"),
            ("HTTP://[2001:DB8::1]:80/", "http://[2001:db8::1]", "2001:db8::1"),
            ("http://[::1]:8080/a", "http://[::1]:8080/a", "::1"),
            ("https://u:p@[::ffff:1.2.3.4]:8443/a", "https://u:p@[::ffff:1.2.3.4]:8443/a",
             "::ffff:1.2.3.4"),
        ],
    )
    def test_ipv6_brackets_kept(self, uri, expected, host):
        assert canonicalize(uri) == expected
        assert hostname_of(expected) == host

    @given(URIS)
    @settings(max_examples=300, deadline=None)
    def test_properties(self, uri):
        """Idempotent, keeps the hostname (and a non-default port), and
        round-trips through urlsplit."""
        once = canonicalize(uri)
        assert canonicalize(once) == once
        before, after = urlsplit(uri), urlsplit(once)
        assert after.hostname == before.hostname
        assert hostname_of(once) == before.hostname
        default = {"http": 80, "https": 443}[after.scheme]
        assert after.port == (None if before.port == default else before.port)
        assert (after.username, after.password or None) == (before.username, before.password or None)
        assert urlunsplit(after) == once


class TestClassifyKind:
    STORY = "https://a.example/story"

    def test_media_type_html(self):
        assert classify_uri_kind(self.STORY, "text/html; charset=utf-8") == HTML_KIND
        assert classify_uri_kind(self.STORY, "application/xhtml+xml") == HTML_KIND

    def test_media_type_non_html(self):
        assert classify_uri_kind(self.STORY, "application/pdf") == NON_HTML_KIND
        assert classify_uri_kind(self.STORY, "image/png") == NON_HTML_KIND

    def test_extension_heuristic(self):
        assert classify_uri_kind("https://a.example/report.pdf") == NON_HTML_KIND
        assert classify_uri_kind("https://a.example/watch.MP4") == NON_HTML_KIND
        assert classify_uri_kind("https://a.example/story") == HTML_KIND
        assert classify_uri_kind("https://a.example/page.html") == HTML_KIND

    def test_media_type_beats_extension(self):
        assert classify_uri_kind("https://a.example/x.pdf", "text/html") == HTML_KIND


class TestHostname:
    def test_full_host_kept(self):
        assert hostname_of("https://www.cnn.com/x") == "www.cnn.com"
        assert hostname_of("https://news.bbc.co.uk/a") == "news.bbc.co.uk"
        assert hostname_of("https://news.bbc.co.uk/a") != hostname_of("https://www.bbc.co.uk/a")

    def test_non_http_rejected(self):
        with pytest.raises(CanonicalizationError):
            hostname_of("mailto:a@b.c")


class TestIntraSite:
    @pytest.mark.parametrize(
        "uri,source",
        [
            ("https://twitter.com/alice/status/123", "twitter"),
            ("https://mobile.twitter.com/alice/status/123", "twitter"),
            ("https://twitter.com/i/moments/99", "twitter_moments"),
            ("https://www.reddit.com/r/news/comments/abc12", "reddit"),
            ("https://www.scoop.it/t/flood/p/40912", "scoopit"),
        ],
    )
    def test_post_permalinks_detected(self, uri, source):
        assert intra_site_source(uri) == source

    @pytest.mark.parametrize(
        "uri",
        [
            "https://twitter.com/alice",
            "https://www.reddit.com/r/news/",
            "https://example.com/r/news/comments/abc12",
            "https://news.example/story",
        ],
    )
    def test_other_uris_not_detected(self, uri):
        assert intra_site_source(uri) is None


def tweet_page(*links):
    anchors = "".join(f'<a href="{l}">link</a>' for l in links)
    return f"<html><body><p>tweet</p>{anchors}</body></html>".encode()


class _PageTransport:
    """Serves ``pages`` (uri -> outbound links, or None for a 404) from
    memory; any other URI is a missing fixture."""

    def __init__(self, pages):
        self.pages = pages

    def request(self, uri):
        if uri not in self.pages:
            raise TransportError(TAG_MISSING_FIXTURE, f"no fixture for {uri}")
        links = self.pages[uri]
        if links is None:
            return 404, {}, b""
        return 200, {"content-type": "text/html"}, tweet_page(*links)


_PERMALINKS = [f"https://twitter.com/u{i}/status/{i}" for i in range(6)]
_PAGE_LINKS = st.sampled_from(
    _PERMALINKS
    + [
        "https://twitter.com/u9/status/9",  # never served
        "https://news.example/a",
        "https://news.example/b?utm_source=x",
        "https://files.example/d.pdf",
        "http://",
    ]
)


class TestSubstitute:
    @given(
        pages=st.dictionaries(
            st.sampled_from(_PERMALINKS),
            st.one_of(st.none(), st.lists(_PAGE_LINKS, max_size=5)),
        ),
        depth_limit=st.integers(0, 5),
        strict=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_recursive_reference(self, pages, depth_limit, strict):
        """Branching, cyclic and failing permalink pages give the targets,
        in the order, and the warnings (or the error, under a strict
        fetcher) of the recursive expansion."""

        def run(substitute, **strictness):
            fetcher = Fetcher(_PageTransport(pages), FetchPolicy(lenient=not strict))
            warnings = []
            try:
                out = substitute(_PERMALINKS[0], fetcher, depth_limit=depth_limit,
                                 warnings=warnings, **strictness)
            except (ExtractionError, FetchError) as exc:
                out = f"{type(exc).__name__}: {exc}"
            return out, warnings

        assert run(substitute_intra_site) == run(reference_substitute_intra_site, strict=strict)

    def test_single_hop_substitution(self, tmp_path):
        uri = "https://twitter.com/bob/status/1"
        write_fixture(tmp_path, uri, 200, {"Content-Type": "text/html"},
                      tweet_page("https://news.example/story"))
        fetcher = Fetcher(FixtureTransport(tmp_path))
        out = substitute_intra_site(uri, fetcher)
        assert out == (("https://news.example/story", "https://news.example/story", "news.example",
                        HTML_KIND),)

    def test_ipv6_link_substituted(self, tmp_path):
        uri = "https://twitter.com/bob/status/1"
        write_fixture(tmp_path, uri, 200, {"Content-Type": "text/html"},
                      tweet_page("http://[::1]:8080/a"))
        out = substitute_intra_site(uri, Fetcher(FixtureTransport(tmp_path)))
        assert [(canonical, hostname) for _, canonical, hostname, _ in out] == [
            ("http://[::1]:8080/a", "::1")
        ]

    def test_chain_resolved_to_depth(self, tmp_path):
        a = "https://twitter.com/a/status/1"
        b = "https://twitter.com/b/status/2"
        c = "https://twitter.com/c/status/3"
        write_fixture(tmp_path, a, 200, {"Content-Type": "text/html"}, tweet_page(b))
        write_fixture(tmp_path, b, 200, {"Content-Type": "text/html"}, tweet_page(c))
        write_fixture(tmp_path, c, 200, {"Content-Type": "text/html"},
                      tweet_page("https://news.example/final"))
        fetcher = Fetcher(FixtureTransport(tmp_path))
        out = substitute_intra_site(a, fetcher, depth_limit=3)
        assert [target[1] for target in out] == ["https://news.example/final"]

    def test_self_reference_terminates_empty(self, tmp_path):
        uri = "https://twitter.com/a/status/1"
        write_fixture(tmp_path, uri, 200, {"Content-Type": "text/html"}, tweet_page(uri))
        fetcher = Fetcher(FixtureTransport(tmp_path))
        warnings = []
        out = substitute_intra_site(uri, fetcher, warnings=warnings)
        assert out == ()
        assert any("no outbound" in w for w in warnings)

    def test_cycle_terminates(self, tmp_path):
        a = "https://twitter.com/a/status/1"
        b = "https://twitter.com/b/status/2"
        write_fixture(tmp_path, a, 200, {"Content-Type": "text/html"}, tweet_page(b))
        write_fixture(tmp_path, b, 200, {"Content-Type": "text/html"},
                      tweet_page(a, "https://news.example/x"))
        fetcher = Fetcher(FixtureTransport(tmp_path))
        out = substitute_intra_site(a, fetcher, depth_limit=5)
        assert [target[1] for target in out] == ["https://news.example/x"]

    def test_fetch_failure_lenient_keeps_original(self, tmp_path):
        tmp_path.mkdir(exist_ok=True)
        fetcher = Fetcher(FixtureTransport(tmp_path))
        warnings = []
        out = substitute_intra_site("https://twitter.com/a/status/404", fetcher, warnings=warnings)
        assert out is None
        assert warnings

    def test_fetch_failure_strict_raises(self, tmp_path):
        uri = "https://twitter.com/a/status/404"
        write_fixture(tmp_path, uri, 404, {}, b"")
        fetcher = Fetcher(FixtureTransport(tmp_path), FetchPolicy(lenient=False))
        with pytest.raises(ExtractionError):
            substitute_intra_site(uri, fetcher)


class TestAssemble:
    def corpus(self):
        return make_corpus(
            [
                make_post(
                    id="r1",
                    serp_visible=True,
                    text="same https://a.example/x and https://a.example/x plus https://b.example/y",
                ),
                make_post(id="r2", serp_visible=True, text="no links"),
                make_post(
                    id="r3",
                    serp_visible=True,
                    author="carol",
                    raw_links=("https://files.example/doc.pdf", "https://A.example/x"),
                ),
            ]
        )

    def assemble(self, corpus=None, **options):
        corpus = corpus or self.corpus()
        partition = partition_corpus(corpus)
        return assemble_collections(
            corpus, partition, options=AssembleOptions(**options)
        )

    def test_dedup_within_collection(self):
        collections = self.assemble()
        cell = collections[("t1", "reddit", "top", "P1A1")]
        assert [s.canonical for s in cell.seeds] == [
            "https://a.example/x",
            "https://b.example/y",
            "https://files.example/doc.pdf",
        ]

    def test_empty_cell_present(self):
        corpus = make_corpus([make_post(id="solo", serp_visible=True)])
        collections = self.assemble(corpus)
        assert collections[("t1", "reddit", "top", "P1A1")].seeds == ()

    def test_kind_partition_sums(self):
        collections = self.assemble()
        for collection in collections.values():
            total = len(collection.seeds)
            split = sum(
                len([s for s in collection.seeds if s.kind == k]) for k in (HTML_KIND, NON_HTML_KIND)
            )
            assert total == split

    def test_provenance_resolves(self):
        corpus = self.corpus()
        partition = partition_corpus(corpus)
        collections = assemble_collections(corpus, partition)
        group_ids = {g.group_id for groups in partition.values() for g in groups}
        for collection in collections.values():
            for seed in collection.seeds:
                assert seed.provenance.post_id in corpus.posts
                assert seed.provenance.group_id in group_ids

    def test_unparseable_uri_skipped_with_warning(self):
        corpus = make_corpus(
            [make_post(id="r", serp_visible=True, raw_links=("http://",))]
        )
        warnings = []
        partition = partition_corpus(corpus)
        collections = assemble_collections(corpus, partition, warnings=warnings)
        assert collections[("t1", "reddit", "top", "P1A1")].seeds == ()
        assert warnings

    def test_global_dedup_spans_cells(self):
        corpus = make_corpus(
            [
                make_post(id="r", serp_visible=True, author="alice",
                          text="https://a.example/x"),
                make_post(id="c", parent_id="r", author="bob",
                          text="https://a.example/x"),
            ]
        )
        per_cell = self.assemble(corpus)
        pnan = per_cell[("t1", "reddit", "top", "PnAn")]
        assert len(pnan.seeds) == 1  # deduped within the cell
        globally = self.assemble(corpus, global_dedup=True)
        total = sum(len(c.seeds) for c in globally.values())
        assert total == 1

    def test_fetch_kinds_uses_media_type(self, tmp_path):
        write_fixture(tmp_path, "https://a.example/download", 200,
                      {"Content-Type": "application/pdf"}, b"%PDF")
        corpus = make_corpus(
            [make_post(id="r", serp_visible=True, text="https://a.example/download")]
        )
        partition = partition_corpus(corpus)
        fetcher = Fetcher(FixtureTransport(tmp_path))
        collections = assemble_collections(
            corpus, partition, fetcher,
            AssembleOptions(fetch_kinds=True),
        )
        seed = collections[("t1", "reddit", "top", "P1A1")].seeds[0]
        assert seed.kind == NON_HTML_KIND
        assert seed.fetch_status == 200
        assert seed.final == "https://a.example/download"

    def test_substituted_seeds_take_each_linking_posts_provenance(self, tmp_path):
        # r1's visit expands the permalink; r2's repeat visit reuses it.
        uri = "https://twitter.com/bob/status/1"
        write_fixture(tmp_path, uri, 200, {"Content-Type": "text/html"},
                      tweet_page("https://news.example/story"))
        corpus = make_corpus(
            [
                make_post(id="r1", serp_visible=True, text=f"via {uri}"),
                make_post(id="r2", serp_visible=True, author="carol", raw_links=(uri,)),
            ]
        )
        partition = partition_corpus(corpus)
        collections = assemble_collections(corpus, partition, Fetcher(FixtureTransport(tmp_path)))
        cell = collections[("t1", "reddit", "top", "P1A1")]
        assert [
            (s.original, s.canonical, s.provenance.post_id, s.provenance.group_id, s.retrieved_at)
            for s in cell.post_seeds
        ] == [
            ("https://news.example/story", "https://news.example/story", post_id, f"{post_id}/P1A1",
             corpus.posts[post_id].retrieved_at)
            for post_id in ("r1", "r2")
        ]

    def test_post_seed_stream_keeps_each_posts_links(self):
        # Two posts in one cell share a URI: the collection dedups it but
        # each post still owns its full link set.
        corpus = make_corpus(
            [
                make_post(id="r1", serp_visible=True,
                          text="https://a.example/x and https://b.example/y"),
                make_post(id="r2", serp_visible=True,
                          text="https://a.example/x and https://c.example/z and https://d.example/w"),
            ]
        )
        cell = self.assemble(corpus)[("t1", "reddit", "top", "P1A1")]
        assert len(cell.seeds) == 4
        by_post = {}
        for s in cell.post_seeds:
            by_post.setdefault(s.provenance.post_id, []).append(s.canonical)
        assert by_post["r1"] == ["https://a.example/x", "https://b.example/y"]
        assert by_post["r2"] == [
            "https://a.example/x",
            "https://c.example/z",
            "https://d.example/w",
        ]

    def test_post_repeating_its_own_link_counts_once(self):
        corpus = make_corpus(
            [make_post(id="r1", serp_visible=True,
                       text="https://a.example/x again https://a.example/x")]
        )
        cell = self.assemble(corpus)[("t1", "reddit", "top", "P1A1")]
        assert len(cell.post_seeds) == 1

    def test_counts_match_independent_recount(self):
        corpus = self.corpus()
        collections = self.assemble(corpus)

        # Brute-force recount: per visible post, dedup within the post set
        # by canonical form computed through an independent normalization.
        from urllib.parse import urlsplit

        def naive_canonical(u):
            p = urlsplit(u)
            return (p.scheme.lower(), (p.hostname or "").lower(), p.path, p.query)

        expected = set()
        for post in corpus.posts.values():
            for uri in extract_uris(post):
                expected.add(naive_canonical(uri))
        got = {
            naive_canonical(s.canonical)
            for c in collections.values()
            for s in c.seeds
        }
        assert got == expected


# Permalink pages shared by the posts of TestAssembleTables: served,
# cyclic (1 <-> 2), a chain nested past small depth limits (3 -> 4 -> 5
# -> 6), a 404 (7), a missing fixture (8), a page with unparseable links
# (9), a page without links (10) and one linking only itself (11).
_P = [f"https://twitter.com/u{i}/status/{i}" for i in range(12)]
_NEWS = ["https://news.example/a", "https://news.example/b?utm_source=x", "https://files.example/d.pdf"]
_TABLE_PAGES = {
    _P[0]: _NEWS,
    _P[1]: [_P[2], "https://news.example/c"],
    _P[2]: [_P[1].replace("twitter.com", "TWITTER.com"), _NEWS[0]],
    _P[3]: [_P[4], _NEWS[1]],
    _P[4]: [_P[5]],
    _P[5]: [_P[6], _NEWS[2]],
    _P[6]: ["https://news.example/deep"],
    _P[7]: None,
    _P[9]: ["http://", _NEWS[0], "http://[::1/", _P[0]],
    _P[10]: [],
    _P[11]: [_P[11]],
}
# Raw forms a post may link: each permalink as written, with a
# different-case host, with tracking parameters and a fragment (all three
# canonicalize alike), and with a query that makes it another permalink.
_POST_LINKS = st.sampled_from(
    [form for uri in _P for form in (
        uri,
        uri.replace("https://twitter.com", "HTTPS://Twitter.COM"),
        uri + "?utm_source=m#top",
        uri + "?s=20",
    )]
    + _NEWS
    + ["https://news.example/a?fbclid=1", "http://"]
)
_POST_SPECS = st.lists(
    st.tuples(
        st.sampled_from(["t1", "t2"]),
        st.sampled_from(["reddit", "twitter"]),
        st.booleans(),  # a reply to the latest post of its topic and source
        st.sampled_from(["alice", "bob"]),
        st.lists(_POST_LINKS, max_size=4),
    ),
    min_size=1,
    max_size=10,
)


def _table_corpus(specs):
    posts = []
    latest = {}
    for i, (topic, source, reply, author, links) in enumerate(specs):
        parent = latest.get((topic, source)) if reply else None
        post = make_post(
            id=f"q{i}",
            topic_id=topic,
            source=source,
            author=author,
            raw_links=tuple(links),
            parent_id=parent,
            serp_visible=parent is None,
        )
        latest[(topic, source)] = post.id
        posts.append(post)
    return make_corpus(posts)


class TestAssembleTables:
    @given(
        specs=_POST_SPECS,
        depth_limit=st.integers(0, 4),
        global_dedup=st.booleans(),
        fetch_kinds=st.booleans(),
        strict=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_assembly_without_tables(self, specs, depth_limit, global_dedup, fetch_kinds,
                                             strict):
        """Posts in several cells linking the same permalinks get the
        collections of an assembly that canonicalizes and substitutes
        again on every visit, and its distinct warnings in first-raised
        order: a permalink's expansion warns on its first visit only."""
        corpus = _table_corpus(specs)
        partition = partition_corpus(corpus)
        options = AssembleOptions(depth_limit=depth_limit, fetch_kinds=fetch_kinds,
                                  global_dedup=global_dedup)

        def run(assemble):
            fetcher = Fetcher(_PageTransport(_TABLE_PAGES), FetchPolicy(lenient=not strict))
            warnings = []
            try:
                out = assemble(corpus, partition, fetcher, options, warnings=warnings)
            except (ExtractionError, FetchError) as exc:
                out = f"{type(exc).__name__}: {exc}"
            return out, list(dict.fromkeys(warnings))

        assert run(assemble_collections) == run(reference_assemble_collections)

    def test_tables_do_not_outlive_a_run(self):
        """Two runs in one process, with fetchers that serve different
        pages for the same permalink, each get their own fetcher's seeds."""
        corpus = _table_corpus([("t1", "reddit", False, "alice", [_P[0]])] * 2)
        partition = partition_corpus(corpus)

        def seeds(pages):
            fetcher = Fetcher(_PageTransport(pages))
            collections = assemble_collections(corpus, partition, fetcher)
            return [s.canonical for c in collections.values() for s in c.post_seeds]

        assert seeds({_P[0]: ["https://news.example/first"]}) == ["https://news.example/first"] * 2
        assert seeds({_P[0]: ["https://news.example/second"]}) == ["https://news.example/second"] * 2
        assert seeds({_P[0]: None}) == [_P[0]] * 2

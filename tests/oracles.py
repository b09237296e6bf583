"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with a different algorithmic
shape than the production code: path enumeration instead of chain
growing, stdlib quantiles instead of the hand-rolled interpolation, a
calendar-free day counter instead of datetime arithmetic.

The last section keeps reference copies of code the package has since
restructured (recursive self-chain growing, the token-by-token term
counter, the tree builder on top of ``html.parser`` that the package
used before its own lexer, the element tree the package built from that
lexer's tokens, the recursive element-tree walks, main-text scoring that
walks each candidate's subtree again, the page digest read from an
element tree before it became one lexer pass, reference extraction that
searched the tree for containers, the page functions and the date chain
that each parsed a document on their own, recursive intra-site
substitution, seed assembly that canonicalizes every link and
substitutes every permalink on each visit, and the per-row rescans of
report assembly), for differential tests.
"""

import json
import re
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date
from html import unescape
from html.parser import HTMLParser
from urllib.parse import urlsplit

from seedsmith.analytics import date_from_last_modified, date_from_uri_path
from seedsmith.extraction import (
    CanonicalizationError,
    ExtractionError,
    SeedCollection,
    SeedProvenance,
    SeedUri,
    _fetch_kind,
    canonicalize,
    classify_uri_kind,
    extract_uris,
    hostname_of,
    intra_site_source,
)
from seedsmith.goldstandard import _REFERENCE_MARKER_RE
from seedsmith.htmltools import (
    _RAW_TEXT_END,
    NON_CONTENT_TAGS,
    VOID_TAGS,
    HtmlDecodingError,
    _markup_token,
    decode_html,
)
from seedsmith.pages import PageDigest


def brute_force_classify(posts, mc_exclude_root=False):
    """Classify one reply tree by exhaustive path enumeration.

    ``posts`` is the full post list of a single tree whose root is the
    unique serp_visible post. Returns a set of (post_class,
    frozenset(post_ids)) pairs.
    """
    by_id = {p.id: p for p in posts}
    children = defaultdict(list)
    for p in posts:
        if p.parent_id is not None:
            children[p.parent_id].append(p)
    roots = [p for p in posts if p.serp_visible]
    assert len(roots) == 1, "brute-force classifier expects exactly one visible root"
    root = roots[0]

    groups = {("P1A1", frozenset([root.id]))}

    # Enumerate every downward path from the root, then keep the
    # author-uniform ones that are not prefixes of longer uniform paths.
    paths = []
    stack = [(root.id, ())]
    while stack:
        post_id, acc = stack.pop()
        acc = acc + (post_id,)
        paths.append(acc)
        for child in children[post_id]:
            stack.append((child.id, acc))

    uniform = [
        p
        for p in paths
        if len(p) >= 2 and all(by_id[x].author == root.author for x in p)
    ]
    # Every prefix of a uniform path that still has two posts is uniform,
    # so p is a proper prefix of some uniform path exactly when p plus
    # one more post is one: comparing against the one-shorter prefixes
    # of all uniform paths is the prefix test, in linear time.
    extended = {q[:-1] for q in uniform}
    maximal = [p for p in uniform if p not in extended]
    for chain in maximal:
        members = chain[1:] if mc_exclude_root else chain
        groups.add(("PnA1", frozenset(members)))

    replies = [p for p in posts if p.id != root.id]
    authors = {p.author for p in posts}
    if replies and len(authors) >= 2:
        members = replies if mc_exclude_root else posts
        groups.add(("PnAn", frozenset(m.id for m in members)))
    return groups


def classify_result_as_set(groups):
    """Production classify_groups output in the brute-force comparison shape."""
    return {(g.post_class, frozenset(g.post_ids)) for g in groups}


def random_reply_tree(rng, max_posts=20, max_authors=4):
    """A random single-root reply tree as a list of conftest-style kwargs."""
    n = rng.randint(1, max_posts)
    authors = [f"a{i}" for i in range(1, rng.randint(1, max_authors) + 1)]
    posts = []
    ids = []
    for i in range(n):
        pid = f"n{i}"
        author = rng.choice(authors)
        if i == 0:
            posts.append(dict(id=pid, author=author, serp_visible=True))
        else:
            posts.append(dict(id=pid, author=author, parent_id=rng.choice(ids)))
        ids.append(pid)
    return posts


def days_from_civil(year, month, day):
    """Days since 1970-01-01 from a civil date, no calendar library.

    Standard era/day-of-era arithmetic over the proleptic Gregorian
    calendar.
    """
    year -= month <= 2
    era = (year if year >= 0 else year - 399) // 400
    yoe = year - era * 400
    doy = (153 * (month + (-3 if month > 2 else 9)) + 2) // 5 + day - 1
    doe = yoe * 365 + yoe // 4 - yoe // 100 + doy
    return era * 146097 + doe - 719468


def quantiles_inclusive(values):
    """(q1, median, q3) via the stdlib's linear-interpolation quantiles."""
    import statistics

    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def distinct_count(items):
    """Set-size oracle via sort-and-scan rather than hashing."""
    ordered = sorted(items)
    count = 0
    previous = object()
    for item in ordered:
        if item != previous:
            count += 1
            previous = item
    return count


# ---------------------------------------------------------------------------
# Reference copies of restructured code
# ---------------------------------------------------------------------------


def reference_self_chains(root):
    """Maximal root-author chains of a segmentation TreeNode, grown
    recursively; the chain order the package must keep."""
    author = root.post.author
    chains = []

    def grow(node, prefix):
        extensions = [c for c in node.children if c.post.author == author]
        if not extensions:
            if len(prefix) >= 2:
                chains.append(prefix)
            return
        for child in extensions:
            grow(child, prefix + [child.post])

    grow(root, [root.post])
    return chains


def reference_token_counts(text, stopwords=frozenset(), min_len=2):
    """Term counts in first-seen order, filtering every alphanumeric run
    one at a time."""
    counts = {}
    for tok in re.findall(r"[^\W_]+", text.lower()):
        if len(tok) < min_len or tok in stopwords:
            continue
        counts[tok] = counts.get(tok, 0) + 1
    return counts


@dataclass(slots=True, eq=False, repr=False)
class Element:
    """One element of a parsed page. Elements compare by identity, and
    ``repr`` shows one level only, so neither recurses into a deep tree."""

    tag: str
    attrs: dict[str, str]
    children: list = field(default_factory=list)  # Element | str

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.tag!r}, {self.attrs!r}, children={len(self.children)})"

    def iter(self):
        """Yield this element and all descendants, depth-first in document
        order. A stack of child iterators stands in for recursion, so
        nesting depth is not bounded by the recursion limit."""
        yield self
        stack = [iter(self.children)]
        while stack:
            for child in stack[-1]:
                if isinstance(child, Element):
                    yield child
                    stack.append(iter(child.children))
                    break
            else:
                stack.pop()

    def iter_tag(self, tag: str):
        for el in self.iter():
            if el.tag == tag:
                yield el


@dataclass(slots=True, eq=False, repr=False)
class Document(Element):
    """Root of a parsed page, with every element below it listed once.

    ``elements`` is in document order, the pre-order ``iter`` yields
    after the root itself. The root is kept out of its own list, so a
    tree holds no reference cycle and is freed as soon as it is dropped.
    """

    elements: list = field(default_factory=list)  # Element


class _TreeBuilder(HTMLParser):
    """Builds the tree and records each element as its start tag arrives:
    an element is only ever added under an open element, and a closed
    one never reopens, so start-tag order is document pre-order."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Document("[document]", {})
        self.elements = self.root.elements
        self.stack = [self.root]

    def updatepos(self, i, j):
        # Line and column numbers are never read; skip counting newlines.
        return j

    def handle_starttag(self, tag, attrs):
        element = Element(tag, {k: (v if v is not None else "") for k, v in attrs})
        self.stack[-1].children.append(element)
        self.elements.append(element)
        if tag not in VOID_TAGS:
            self.stack.append(element)

    def handle_startendtag(self, tag, attrs):
        # <tag/> opens and closes at once.
        self.handle_starttag(tag, attrs)
        if tag not in VOID_TAGS:
            self.stack.pop()

    def handle_endtag(self, tag):
        # Pop back to the nearest matching open tag; ignore stray closers.
        for i in range(len(self.stack) - 1, 0, -1):
            if self.stack[i].tag == tag:
                del self.stack[i:]
                return

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def reference_parse_html(text):
    """The tree as it was first built: ``html.parser`` driving
    ``_TreeBuilder``. Raises AssertionError on a ``<![`` section with no
    name or an unknown one, which the package's lexer reads as a bogus
    comment."""
    builder = _TreeBuilder()
    builder.feed(text)
    builder.close()
    return builder.root


def lexer_tree(text):
    """The tree ``_TreeBuilder`` builds from the package's lexer tokens:
    text between two tags is one chunk with its character references
    converted, ``script`` and ``style`` hold their raw text, dropped with
    the rest of the input if their end tag never comes."""
    builder = _TreeBuilder()
    find = text.find
    n = len(text)
    i = 0
    while i < n:
        j = find("<", i)
        if j < 0:
            j = n
        if i < j:
            builder.handle_data(unescape(text[i:j]))
        if j == n:
            break
        i, token = _markup_token(text, j)
        if type(token) is not tuple:
            if token is not None:
                builder.handle_data(token)
            continue
        tag, attrs, closed = token
        if attrs is None:
            builder.handle_endtag(tag)
        elif closed:
            builder.handle_startendtag(tag, attrs.items())
        else:
            builder.handle_starttag(tag, attrs.items())
            if tag in _RAW_TEXT_END:
                m = _RAW_TEXT_END[tag].search(text, i)
                if m is None:
                    break
                builder.handle_data(text[i : m.start()])
                builder.handle_endtag(tag)
                i = m.end()
    return builder.root


def _looks_like_reference_container(el):
    attrs = " ".join(
        filter(None, (el.attrs.get("id"), el.attrs.get("class"), el.attrs.get("role")))
    )
    return bool(attrs and _REFERENCE_MARKER_RE.search(attrs))


def reference_extract_references(body, final_uri):
    """``goldstandard.extract_references`` as it was: it searches the
    element tree for marked containers, then for ordered lists that hold
    an off-site anchor, and takes each container's anchors in turn."""
    try:
        root = lexer_tree(decode_html(body))
    except HtmlDecodingError:
        return []
    page_host = (urlsplit(final_uri).hostname or "").lower()

    def external_uris(container):
        out = []
        for anchor in container.iter_tag("a"):
            href = anchor.attrs.get("href")
            if not href:
                continue
            href = href.strip()
            if not href.lower().startswith(("http://", "https://")):
                continue
            host = (urlsplit(href).hostname or "").lower()
            if host and host != page_host:
                out.append(href)
        return out

    containers = [el for el in root.elements if _looks_like_reference_container(el)]
    if not containers:
        containers = [el for el in root.elements if el.tag == "ol" and external_uris(el)]
    if not containers:
        return []

    seen = set()
    uris = []
    for container in containers:
        for uri in external_uris(container):
            if uri not in seen:
                seen.add(uri)
                uris.append(uri)
    return uris


def reference_iter(element):
    """An element and its descendants, recursively, in pre-order."""
    yield element
    for child in element.children:
        if isinstance(child, Element):
            yield from reference_iter(child)


def reference_text(element, exclude=NON_CONTENT_TAGS):
    """Whitespace-collapsed text of a subtree, collected recursively."""
    parts = []

    def collect(el):
        for child in el.children:
            if isinstance(child, str):
                parts.append(child)
            elif child.tag not in exclude:
                collect(child)

    collect(element)
    return " ".join(" ".join(parts).split())


def reference_main_container(root):
    """The element whose text is a parsed document's main content,
    scoring every candidate container by walking its subtree again."""
    elements = [el for el in root.iter() if el is not root]
    if not elements:
        raise ValueError("input does not look like an HTML document (no tags found)")

    candidates = [
        el for el in elements if el.tag in ("article", "main", "body", "section", "div", "td")
    ]
    if not candidates:
        candidates = [root]

    def score(el):
        full = reference_text(el)
        link_text = " ".join(reference_text(a) for a in el.iter_tag("a"))
        return len(full) - len(link_text)

    best = None
    best_key = None
    for index, el in enumerate(candidates):
        key = (score(el), -(len(list(reference_iter(el))) - 1), -index)
        if best_key is None or key > best_key:
            best, best_key = el, key
    return best


def reference_main_text(root):
    """The text of ``reference_main_container(root)``."""
    return reference_text(reference_main_container(root))


def reference_main_text_bottom_up(root):
    """``reference_main_text`` for pages too deep to walk again for each
    candidate: every element's text, anchor texts and size are built once
    from its children's, bottom up, and the best candidate is taken by the
    same key."""
    order = list(root.iter())  # pre-order, the root first
    if len(order) == 1:
        raise ValueError("input does not look like an HTML document (no tags found)")
    text, anchors, size = {}, {}, {}
    for el in reversed(order):
        parts, links, count = [], [], 0
        for child in el.children:
            if isinstance(child, str):
                parts.append(child)
                continue
            if child.tag not in NON_CONTENT_TAGS:
                parts.append(text[id(child)])
            links.extend(anchors[id(child)])
            count += size[id(child)] + 1
        text[id(el)] = " ".join(" ".join(parts).split())
        anchors[id(el)] = [text[id(el)]] + links if el.tag == "a" else links
        size[id(el)] = count

    def key(candidate):
        index, el = candidate
        return len(text[id(el)]) - len(" ".join(anchors[id(el)])), -size[id(el)], -index

    candidates = [
        (i, el) for i, el in enumerate(order)
        if el.tag in ("article", "main", "body", "section", "div", "td")
    ]
    return text[id(max(candidates or [(0, root)], key=key)[1])]


def reference_strip_boilerplate(html):
    """Main-content text, parsing the document itself."""
    text = decode_html(html) if isinstance(html, bytes) else html
    return reference_main_text(reference_parse_html(text))


_ISO_DATE_PREFIX_RE = re.compile(r"^\s*(\d{4})-(\d{2})-(\d{2})")
_META_PROPERTY_FIELDS = ("article:published_time", "og:article:published_time", "article:published")
_META_NAME_FIELDS = (
    "date",
    "pubdate",
    "publishdate",
    "publish-date",
    "published-date",
    "publication_date",
    "dc.date",
    "dc.date.issued",
    "sailthru.date",
    "parsely-pub-date",
    "article.published",
    "timestamp",
)


def _parse_iso_date(value):
    if not isinstance(value, str):
        return None
    m = _ISO_DATE_PREFIX_RE.match(value)
    if not m:
        return None
    try:
        return date(int(m.group(1)), int(m.group(2)), int(m.group(3)))
    except ValueError:
        return None


def _jsonld_published(node):
    if isinstance(node, dict):
        for field in ("datePublished", "dateCreated"):
            if field in node:
                return node[field]
        for value in node.values():
            found = _jsonld_published(value)
            if found:
                return found
    elif isinstance(node, list):
        for item in node:
            found = _jsonld_published(item)
            if found:
                return found
    return None


def reference_metadata_date(body):
    """Metadata publication date of a document body, parsing it itself."""
    try:
        root = reference_parse_html(decode_html(body))
    except HtmlDecodingError:
        return None
    return reference_tree_date(root)


def reference_tree_date(root):
    """Metadata publication date of a parsed document, searching its tree
    once per kind of element."""
    metas = [el.attrs for el in root.iter_tag("meta")]

    for wanted in _META_PROPERTY_FIELDS:
        for meta in metas:
            if meta.get("property", "").lower() == wanted:
                found = _parse_iso_date(meta.get("content", ""))
                if found:
                    return found
    for meta in metas:
        if meta.get("itemprop", "").lower() == "datepublished":
            found = _parse_iso_date(meta.get("content", ""))
            if found:
                return found
    for el in root.iter_tag("time"):
        if "pubdate" in el.attrs or el.attrs.get("itemprop", "").lower() == "datepublished":
            found = _parse_iso_date(el.attrs.get("datetime", ""))
            if found:
                return found
    for el in root.iter_tag("script"):
        if el.attrs.get("type", "").lower() != "application/ld+json":
            continue
        raw = "".join(c for c in el.children if isinstance(c, str))
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, RecursionError):
            # Too deep for the decoder: treated as carrying no date.
            continue
        found = _parse_iso_date(_jsonld_published(payload))
        if found:
            return found
    for wanted in _META_NAME_FIELDS:
        for meta in metas:
            if meta.get("name", "").lower() == wanted:
                found = _parse_iso_date(meta.get("content", ""))
                if found:
                    return found
    return None


def reference_links(root):
    """hrefs of a parsed document's anchors that are absolute http(s)
    URIs, in document order."""
    out = []
    for el in root.iter_tag("a"):
        href = el.attrs.get("href", "").strip()
        if href.lower().startswith(("http://", "https://")):
            out.append(href)
    return out


def reference_target_links(body):
    """Absolute http(s) links of a document body, [] if it cannot be read."""
    try:
        return reference_links(reference_parse_html(decode_html(body)))
    except ValueError:
        return []


def reference_digest(body, main_text=reference_main_text):
    """``digest_page(body)`` read the tree way: ``lexer_tree`` builds the
    element tree, and the main text (``main_text`` of the tree), the
    metadata date and the links are read from it by the reference walks."""
    try:
        root = lexer_tree(decode_html(body))
    except ValueError as exc:
        return PageDigest("", str(exc), None, ())
    try:
        text, error = main_text(root), None
    except ValueError as exc:
        text, error = "", str(exc)
    return PageDigest(text, error, reference_tree_date(root), tuple(reference_links(root)))


def reference_publication_date(fetch):
    """The publication-date chain with each step reading the fetched page
    on its own: metadata (parsing the body), URI path, Last-Modified.
    Returns (date, step name) or None."""
    steps = (
        ("metadata", lambda f: reference_metadata_date(f.body)),
        ("uri-path", date_from_uri_path),
        ("last-modified", date_from_last_modified),
    )
    for name, step in steps:
        found = step(fetch)
        if found is not None:
            return found, name
    return None


def reference_substitute_intra_site(permalink, fetcher, depth_limit=3, strict=False, warnings=None):
    """Intra-site substitution recursing once per nesting level, reading
    each target's links from a fresh parse of its body. Returns the
    (original, canonical, hostname, kind) targets, or None when the
    permalink is kept as-is."""

    def warn(message):
        if warnings is not None:
            warnings.append(message)

    visited = {permalink}

    def expand(uri, depth):
        result = fetcher.dereference(uri)
        if not result.ok:
            if strict:
                raise ExtractionError(f"cannot resolve intra-site URI {uri}: {result.status}")
            warn(f"intra-site URI {uri} not resolvable ({result.status}); kept as-is")
            return None
        out = []
        for link in reference_target_links(result.body):
            try:
                canonical = canonicalize(link)
                hostname = hostname_of(canonical)
            except CanonicalizationError:
                warn(f"skipping unparseable link {link!r} in {uri}")
                continue
            if intra_site_source(canonical) and depth < depth_limit:
                if canonical in visited:
                    continue
                visited.add(canonical)
                nested = expand(canonical, depth + 1)
                if nested is not None:
                    out.extend(nested)
                continue
            out.append((link, canonical, hostname, classify_uri_kind(canonical)))
        return out

    expanded = expand(permalink, 1)
    if expanded is None:
        return None
    if not expanded:
        warn(f"intra-site URI {permalink} had no outbound links; seed dropped")
    return tuple(expanded)


def reference_assemble_collections(corpus, partition, fetcher, options, warnings=None):
    """Seed assembly with no per-run tables: every visit canonicalizes its
    link and substitutes its permalink again, through the recursive
    reference substitution. ``options`` is an ``AssembleOptions``."""
    global_seen = set()
    collections = {}
    for key in sorted(partition):
        seen = global_seen if options.global_dedup else set()
        per_post_seen = {}
        seeds = []
        stream = []
        for group in partition[key]:
            for post_id in group.post_ids:
                post = corpus.posts[post_id]
                post_seen = per_post_seen.setdefault(post.id, set())
                for raw in extract_uris(post):
                    try:
                        canonical = canonicalize(raw)
                        hostname = hostname_of(canonical)
                    except CanonicalizationError:
                        if warnings is not None:
                            warnings.append(f"post {post.id}: skipping unparseable URI {raw!r}")
                        continue
                    provenance = SeedProvenance(
                        post.id, group.group_id, group.topic_id, group.source,
                        group.vertical, group.post_class,
                    )
                    targets = None
                    if fetcher is not None and intra_site_source(canonical):
                        targets = reference_substitute_intra_site(
                            canonical, fetcher, options.depth_limit, not fetcher.policy.lenient,
                            warnings,
                        )
                    if targets is None:
                        targets = [(raw, canonical, hostname, classify_uri_kind(canonical))]
                    expanded = [SeedUri(*target, provenance, post.retrieved_at) for target in targets]
                    for candidate in expanded:
                        if candidate.canonical in post_seen:
                            continue
                        post_seen.add(candidate.canonical)
                        if options.fetch_kinds and fetcher is not None:
                            candidate = _fetch_kind(candidate, fetcher)
                        stream.append(candidate)
                        if candidate.canonical not in seen:
                            seen.add(candidate.canonical)
                            seeds.append(candidate)
        collections[key] = SeedCollection(key, tuple(seeds), tuple(stream))
    return collections


_MC_MEMBER_CLASSES = ("PnA1", "PnAn")


def reference_seeds_for_row(collections, row_key):
    """Deduped seeds of a report row, rescanning every cell; MC rows pool
    their member cells in sorted order."""
    topic, source, vertical, post_class = row_key
    if post_class == "MC":
        member_keys = [
            k
            for k in sorted(collections)
            if k[0] == topic and k[1] == source and k[2] == vertical and k[3] in _MC_MEMBER_CLASSES
        ]
    else:
        member_keys = [row_key] if row_key in collections else []
    seen = set()
    seeds = []
    for key in member_keys:
        for seed in collections[key].seeds:
            if seed.canonical in seen:
                continue
            seen.add(seed.canonical)
            seeds.append(seed)
    return seeds


def reference_observations_for_row(observations, row_key):
    """Observations of a report row, rescanning every observation."""
    topic, source, vertical, post_class = row_key
    classes = _MC_MEMBER_CLASSES if post_class == "MC" else (post_class,)
    return [
        o
        for o in observations
        if o.topic == topic and o.source == source and o.vertical == vertical and o.post_class in classes
    ]

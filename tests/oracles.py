"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with a different algorithmic
shape than the production code: path enumeration instead of chain
growing, stdlib quantiles instead of the hand-rolled interpolation, a
calendar-free day counter instead of datetime arithmetic.

The last section keeps reference copies of code the package has since
restructured (recursive self-chain growing, the token-by-token term
counter, the recursive element-tree walks, main-text scoring that walks
each candidate's subtree again, the page functions that each parsed a
document on their own, and the per-row rescans of report assembly), for
differential tests.
"""

import json
import re
from collections import defaultdict
from datetime import date

from seedsmith.htmltools import (
    NON_CONTENT_TAGS,
    Element,
    HtmlDecodingError,
    absolute_http_links,
    decode_html,
    find_meta,
    parse_html,
)


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
        full = el.text(exclude=NON_CONTENT_TAGS)
        link_text = " ".join(a.text(exclude=NON_CONTENT_TAGS) for a in el.iter_tag("a"))
        return len(full) - len(link_text)

    best = None
    best_key = None
    for index, el in enumerate(candidates):
        key = (score(el), -(len(list(reference_iter(el))) - 1), -index)
        if best_key is None or key > best_key:
            best, best_key = el, key
    return best


def reference_strip_boilerplate(html):
    """Main-content text, parsing the document itself."""
    text = decode_html(html) if isinstance(html, bytes) else html
    return reference_main_container(parse_html(text)).text(exclude=NON_CONTENT_TAGS)


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
        root = parse_html(decode_html(body))
    except HtmlDecodingError:
        return None
    metas = find_meta(root)

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
        except json.JSONDecodeError:
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


def reference_target_links(body):
    """Absolute http(s) links of a document body, [] if it cannot be read."""
    try:
        return absolute_http_links(parse_html(decode_html(body)))
    except ValueError:
        return []


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

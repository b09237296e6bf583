"""seedsmith: seed URIs for web-archive collections from social media posts.

The pipeline stages map onto subpackages/modules:

- ``corpus``: post/topic data model, JSONL persistence, polite fetching
- ``segmentation``: reply forests and post-class groups (micro-collections)
- ``pages``: one digest per fetched page (main text, metadata date, links)
- ``extraction``: URI extraction, canonicalization, seed collections
- ``goldstandard``: per-topic term vectors from reference documents
- ``analytics``: distributions, relevance/precision, ages, diversity, overlap
- ``cli``: the ``seedsmith`` command
"""

__version__ = "0.1.0"

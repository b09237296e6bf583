"""Corpus data model (``model``), JSONL persistence (``jsonl``), thread
expansion (``threads``) and the polite fetch layer (``fetch``)."""

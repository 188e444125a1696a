"""Filtering indexes: label index, degree/NS filters, candidate sets.

Plans and the index cache are imported by module path
(:mod:`repro.indexes.plans`, :mod:`repro.indexes.graph_cache`)."""

from repro.indexes.candidates import CandidateIndex

__all__ = ["CandidateIndex"]

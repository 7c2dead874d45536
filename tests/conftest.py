"""Fixtures shared by several test modules."""

import pytest

import dsncp.summaries


@pytest.fixture
def pair_searches(monkeypatch):
    """A list that gets one entry per pair search ``K_hat`` runs (its call
    of ``summaries._translation_pairs``)."""
    searches = []
    search = dsncp.summaries._translation_pairs

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(dsncp.summaries, "_translation_pairs", counted)
    return searches

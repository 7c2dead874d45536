"""Fixtures shared by several test modules."""

import pytest

import dsncp.cluster
import dsncp.summaries
from dsncp.core import RngStream


@pytest.fixture
def pair_searches(monkeypatch):
    """A list that gets one entry per pair search ``K_hat`` or ``pcf_hat``
    runs (their calls of ``summaries._translation_pairs``)."""
    searches = []
    search = dsncp.summaries._translation_pairs

    def counted(*args):
        searches.append(args)
        return search(*args)

    monkeypatch.setattr(dsncp.summaries, "_translation_pairs", counted)
    return searches


@pytest.fixture
def no_draws(monkeypatch):
    """Make every random draw (all go through ``RngStream.generator``) and
    both DPP spectrum builders, as ``dsncp.cluster`` looks them up, raise
    AssertionError naming what was reached."""
    def reached(name):
        def stub(*args, **kwargs):
            raise AssertionError(f"{name} reached")
        return stub

    monkeypatch.setattr(RngStream, "generator",
                        property(reached("RngStream.generator")))
    for name in ("gaussian_dpp_spectrum", "ginibre_spectrum"):
        monkeypatch.setattr(dsncp.cluster, name,
                            reached(f"dsncp.cluster.{name}"))
    # a spectrum kept from an earlier test would skip the builders
    dsncp.cluster.centre_spectrum.cache_clear()

"""Shared fixtures and the settings profile of the property tests."""

from types import SimpleNamespace

import pytest
from hypothesis import settings

from skewarch.registry import ENTRIES, RunConfig, startup_self_check
from skewarch.reports import render_json, render_text
from skewarch.suites import SUITE_IDS, run_one

# property tests draw the same examples on every run and never time out
settings.register_profile("tier1", derandomize=True, deadline=None,
                          max_examples=30, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def seed42_matrix():
    """The full registry x suite matrix at seed 42, run in process once:
    its 198 reports, and the JSON and explain text that
    `skewarch run --entry all --suite all --seed 42` and the same
    `explain` command print."""
    startup_self_check()
    config = RunConfig(seed=42).validated()
    reports = [run_one(entry, suite_id, config)
               for entry in ENTRIES for suite_id in SUITE_IDS]
    return SimpleNamespace(
        reports=reports, json=render_json(reports, config),
        explain=render_text(reports))

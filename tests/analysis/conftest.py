"""Fixtures shared by the analysis tests."""

from __future__ import annotations

from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def src_lint_cache(tmp_path_factory) -> Path:
    """One AST-index cache shared by every whole-``src/`` lint run.

    The index and the effect/snapshot summaries beside it are keyed on
    content digests, so sharing them cannot change a finding; it only
    saves re-parsing the tree once per test.
    """
    return tmp_path_factory.mktemp("src_lint_cache") / "ast_index.pickle"

"""Shared fixtures: enable expensive invariant checks during tests."""

from __future__ import annotations

import pytest

import repro.hardware.router as router_mod


@pytest.fixture(autouse=True, scope="session")
def _enable_invariant_checks():
    """Run every test with flow-control invariant checking enabled."""
    old = router_mod.CHECK_INVARIANTS
    router_mod.CHECK_INVARIANTS = True
    yield
    router_mod.CHECK_INVARIANTS = old


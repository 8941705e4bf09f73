"""Fixtures for the multi-tenant service suite.

Fleets are tiny rings so tests isolate the tenancy machinery (LRU,
scheduler, fault domains) rather than verification cost; everything is
deterministic in the seed.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.serve.engine import ServeOptions
from repro.tenants import TenantService, TenantServiceOptions
from repro.workloads.tenants import build_fleet


@pytest.fixture
def make_fleet(tmp_path):
    """Factory: materialize a fleet root, return its path."""

    def build(count=4, total_batches=16, seed=7, **kwargs):
        root = tmp_path / "fleet"
        build_fleet(
            root, count, total_batches=total_batches, seed=seed, **kwargs
        )
        return root

    return build


@pytest.fixture
def make_service():
    """Factory: a TenantService with fast, test-friendly defaults
    (no backoff sleeps, no breaker unless asked)."""

    def build(root, **overrides):
        # Overrides name fields of either options object; the
        # ServeOptions ones (journal/health files, obs port, checkpoint
        # cadence, ...) go to ``serve``.
        service_fields = {f.name for f in dataclasses.fields(TenantServiceOptions)}
        serve = dict(breaker_threshold=0, backoff_base=0.0, poll_interval=0.01)
        serve.update(overrides.pop("serve", {}))
        serve.update(
            (name, overrides.pop(name))
            for name in list(overrides)
            if name not in service_fields
        )
        options = TenantServiceOptions(serve=ServeOptions(**serve), **overrides)
        return TenantService(root, options)

    return build

"""Shared pytest configuration: warning filters and Hypothesis CI profiles.

Every ``DeprecationWarning`` is an error, so no deprecation shim (the
library's or a dependency's) can slip into the suite unnoticed.

Two registered profiles trade property-suite coverage for wall clock:

* ``ci`` (default) — the PR-gate budget; per-test ``max_examples`` pins
  apply as written.
* ``ci-deep`` — the nightly budget; every property's example budget is
  scaled up by ``tests.properties._profiles.DEEP_SCALE`` (the scheduled
  CI job exports ``HYPOTHESIS_PROFILE=ci-deep``).

Profiles are registered here so undecorated properties inherit sane CI
defaults (no deadline — shared runners stall unpredictably); decorated
ones get their scaling through :func:`tests.properties._profiles.
ci_settings`, because an explicit ``@settings`` overrides any profile.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis is a test-only dep
    settings = None


def pytest_configure(config):
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning")


if settings is not None:
    settings.register_profile("ci", deadline=None)
    settings.register_profile("ci-deep", deadline=None, max_examples=1000)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))

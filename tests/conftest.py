"""Shared fixtures and deterministic test configuration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Hypothesis draws examples from the literal constants of the non-test
# modules loaded so far, so every module is loaded up front: a test file
# run alone then draws the same examples as the full suite.
from minklab import (  # noqa: F401
    bumps,
    cantor,
    curve,
    errors,
    export,
    fn_core,
    hinge,
    infconv,
    jets,
    patching,
    rotated_graph,
)

settings.register_profile(
    "det",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def hinge_profile():
    """A glued convex profile with an exactly flat start and steep slope decay.

    Shared by the hinge and acceptance suites: flat near 0 (truncated), slopes
    decaying fast enough that very small opening angles are reachable.
    """
    from minklab.patching import (
        SlopeSchedule,
        build_patched_convex,
        quadratic_profile_family,
    )

    b = np.array(
        [2.0, 0.8, 0.3, 0.1, 0.02, 1e-3, 1e-5, 1e-8, 1e-12, 1e-17, 1e-23]
    )
    a = 2.0 ** -np.arange(11)
    return build_patched_convex(SlopeSchedule(b), quadratic_profile_family(a))


@pytest.fixture(scope="session")
def hinge_schedule(hinge_profile):
    """The five-level smoothing schedule on the shared profile."""
    from minklab.hinge import schedule_smoothings

    return schedule_smoothings(hinge_profile.f, 5)


@pytest.fixture(scope="session")
def second_profile():
    """A second glued profile with a different slope schedule (for pairs)."""
    from minklab.patching import (
        SlopeSchedule,
        build_patched_convex,
        quadratic_profile_family,
    )

    b = np.array(
        [1.6, 0.7, 0.28, 0.09, 0.018, 9e-4, 9e-6, 9e-9, 9e-13, 9e-18, 9e-24]
    )
    a = 2.0 ** -np.arange(11)
    return build_patched_convex(SlopeSchedule(b), quadratic_profile_family(a))


@pytest.fixture(scope="session")
def second_schedule(second_profile):
    from minklab.hinge import schedule_smoothings

    return schedule_smoothings(second_profile.f, 5)


@pytest.fixture(scope="session")
def assembled(hinge_profile, hinge_schedule):
    """Curve and zero structure assembled from the shared schedule."""
    from minklab.curve import assemble_curve

    return assemble_curve(hinge_profile.f, hinge_schedule, m_max=5)


@pytest.fixture(scope="session")
def assembled_second(second_profile, second_schedule):
    from minklab.curve import assemble_curve

    return assemble_curve(second_profile.f, second_schedule, m_max=5)


@pytest.fixture(scope="session")
def support_first(assembled):
    from minklab.curve import SupportFn

    return SupportFn.from_curve(assembled[0])


@pytest.fixture(scope="session")
def support_second(assembled_second):
    from minklab.curve import SupportFn

    return SupportFn.from_curve(assembled_second[0])

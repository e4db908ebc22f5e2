"""Shared test settings.

``pytest --hypothesis-profile=ci`` selects the ``ci`` profile: examples
come from a fixed seed, so a failure in CI reproduces on any machine,
and there is no per-example deadline, so a slow shared runner does not
fail a test on time alone.  Local runs keep hypothesis's default profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

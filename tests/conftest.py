"""Hypothesis profiles: ``ci`` draws the same examples on every run and prints the blob
that replays a failure; select it with ``HYPOTHESIS_PROFILE=ci``.  Other runs keep the
default profile.  Neither sets a deadline: exact tests on large draws take seconds."""

import os

from hypothesis import settings

settings.register_profile("default", deadline=None)
settings.register_profile("ci", settings.get_profile("default"), derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

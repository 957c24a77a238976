"""Test-wide settings: property tests draw the same examples on every run."""

from hypothesis import settings

settings.register_profile(
    "hieram", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("hieram")

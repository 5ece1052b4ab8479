"""Hypothesis runs derandomized and without an example database, so every
run of one commit draws the same examples and a fuzz failure reproduces."""

from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")

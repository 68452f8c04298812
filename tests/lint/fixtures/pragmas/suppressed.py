"""Pragma suppression fixture (tests/lint fixture, never imported)."""

__all__ = ["make"]


def make(options):
    return SweepEngine(options)  # repro-lint: disable=facade.engine-bypass -- fixture exercises inline suppression

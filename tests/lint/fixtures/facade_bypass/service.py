"""Seeded facade violation (tests/lint fixture, never imported)."""

from repro.analysis.engine import SweepEngine

__all__ = ["build"]


def build(options):
    return SweepEngine(options)

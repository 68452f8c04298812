"""Scalar overrides below a batched provider (tests/lint fixture, never imported)."""

from .fast import FastBlock


class ShadowBlock(FastBlock):
    def linearise(self, t, x, y):
        return None

    def derivatives(self, t, x, y):
        return x


class HonestBlock(FastBlock):
    def linearise(self, t, x, y):
        return None

    def linearise_batch(self, lanes, t, x, y):
        return None

    def batched_lineariser(self, lanes):
        return None


class GrandchildBlock(ShadowBlock):
    pass

"""A fully batched block (tests/lint fixture, never imported)."""

from repro.core.block import AnalogueBlock


class FastBlock(AnalogueBlock):
    def derivatives(self, t, x, y):
        return x

    def linearise(self, t, x, y):
        return None

    def evaluate_batch(self, lanes, t, x, y):
        return x, y

    def linearise_batch(self, lanes, t, x, y):
        return None

    def batched_lineariser(self, lanes):
        return None

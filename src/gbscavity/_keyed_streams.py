"""Seed words for np.random.PCG64 computed ahead of time.

A module of its own because it imports numpy.random, which numpy 2.x loads
lazily: monte_carlo_jitter imports it when called, not `import gbscavity`.
"""

from numpy.random.bit_generator import ISeedSequence


class SeedWords(ISeedSequence):
    """Hands PCG64 the four uint64 seed words a SeedSequence would generate.

    PCG64 asks its seed sequence for generate_state(4, np.uint64) once, at
    construction, and seeds itself from those words alone.
    """

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=None):
        return self.words

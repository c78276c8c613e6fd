"""The Monte Carlo's keyed RNG streams, bit for bit.

Sample i of `monte_carlo_jitter` draws from `np.random.default_rng((seed, i))`.
The seed words of all those streams are derived in one vectorized pass, which
must reproduce numpy's `SeedSequence` exactly, and the draws must be the ones
`default_rng` gives.  numpy.random itself must stay out of the package import.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gbscavity
from gbscavity import ErrorModel, GenerationConfig, monte_carlo_jitter
from gbscavity.protocol import _keyed_seed_words

# seeds of 1 and 2 uint32 words, and the boundary between them
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
       n=st.integers(1, 300))
@example(seed=0, n=1)
@example(seed=2**64 - 1, n=300)
def test_seed_words_match_seed_sequence(seed, n):
    words = _keyed_seed_words(seed, n)
    assert words.shape == (n, 4)
    assert words.dtype == np.uint64
    expected = [np.random.SeedSequence((seed, i)).generate_state(4, np.uint64) for i in range(n)]
    assert np.array_equal(words, np.array(expected))


def keyed_draws(seed, n, jitter, efficiency):
    """eps_t1, eps_t2 and detection drawn straight from default_rng((seed, i))."""
    eps = np.empty((n, 2))
    detected = np.empty(n, dtype=bool)
    for i in range(n):
        rng = np.random.default_rng((seed, i))
        eps[i] = rng.normal(0.0, jitter, size=2)
        detected[i] = rng.random() < efficiency
    return eps[:, 0], eps[:, 1], detected


@pytest.mark.parametrize("seed, jitter_t1, efficiency", [
    (0, True, 1.0),
    (7, True, 1.0),
    (2**32, True, 1.0),
    (2**64 - 1, True, 1.0),
    (7, False, 1.0),
    (2**64 - 1, True, 0.5),
])
def test_monte_carlo_draws_from_keyed_streams(seed, jitter_t1, efficiency):
    n, jitter = 150, 1e-2
    model = ErrorModel(rel_timing_jitter=jitter, detector_efficiency=efficiency,
                       samples=n, seed=seed, jitter_t1=jitter_t1)
    samples = monte_carlo_jitter(GenerationConfig(p=0.5), model).samples
    eps_t1, eps_t2, detected = keyed_draws(seed, n, jitter, efficiency)
    assert np.array_equal(samples.eps_t1, eps_t1 if jitter_t1 else np.zeros(n))
    assert np.array_equal(samples.eps_t2, eps_t2)
    assert np.array_equal(samples.detected, detected)


def test_package_import_leaves_numpy_random_unloaded():
    # numpy 1.x loads numpy.random with numpy itself; 2.x loads it lazily
    probe = "import sys, {}; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(gbscavity.__file__).parents[1])}

    def loaded(modules):
        proc = subprocess.run([sys.executable, "-c", probe.format(modules)], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        return proc.stdout.strip() == "True"

    assert loaded("gbscavity, gbscavity.cli") == loaded("numpy")

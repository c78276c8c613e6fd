"""The Monte Carlo's keyed RNG streams in `gbscavity._streams`, bit for bit.

Sample i of `monte_carlo_jitter` draws from `np.random.default_rng((seed, i))`.
The seed words of all those streams are derived in one vectorized pass, which
must reproduce numpy's `SeedSequence` exactly.  The streams then run in bulk:
PCG64 on uint64 columns and numpy's ziggurat fast path, whose layer widths and
thresholds are read off the installed numpy; the rows off that path are drawn
by numpy per sample.  The draws must be the ones `default_rng` gives, compared
by bytes so that a -0.0 cannot pass for 0.0.
Every jitter scales the one cached set of standard normals per (seed, samples);
that must not depend on which run filled the cache.  numpy.random and the
streams module itself must stay out of the package import.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random.bit_generator import ISeedSequence

import gbscavity
from gbscavity import ErrorModel, GenerationConfig, monte_carlo_jitter
from gbscavity._streams import (_PCG_MULT, _keyed_draws, _keyed_seed_words, _pcg_outputs,
                               _ziggurat_tables)

# seeds of 1 and 2 uint32 words, and the boundary between them
EDGE_SEEDS = (0, 2**32 - 1, 2**32, 2**64 - 1)
# zero, the smallest subnormal (products round to +-0.0 and +-5e-324) and the CLI range
EDGE_JITTERS = (0.0, 5e-324, 1e-3, 1e-2, 1.0)


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


class Words(ISeedSequence):
    """Seeds PCG64 with the given four uint64 words, as a SeedSequence's generate_state would."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=None):
        return self.words


def test_bulk_pcg64_matches_numpy_at_word_extremes():
    # all-zero and all-one words put every carry of the 128-bit step at its edge
    top = 2**64 - 1
    rows = [(0, 0, 0, 0), (top, top, top, top), (0, top, top, 0), (top, 0, 0, top), (1, 2, 3, 4)]
    drawn = np.random.default_rng(3).integers(0, top, (50, 4), dtype=np.uint64, endpoint=True)
    words = np.array(rows + drawn.tolist(), dtype=np.uint64)
    expected = np.array([np.random.PCG64(Words(w)).random_raw(3) for w in words])
    assert np.array_equal(np.stack(_pcg_outputs(words, 3), axis=1), expected)


@pytest.mark.parametrize("seed", (0, 7, 2**32 - 1, 2**32, 2**64 - 1))
def test_bulk_draws_equal_default_rng_streams(seed):
    n = 10000
    _keyed_draws.cache_clear()
    z, rolls = _keyed_draws(seed, n)
    expected_z, expected_rolls = np.empty((n, 2)), np.empty(n)
    raw = np.empty((n, 2), dtype=np.uint64)
    for i in range(n):
        rng = np.random.default_rng((seed, i))
        state = rng.bit_generator.state
        raw[i] = rng.bit_generator.random_raw(2)
        rng.bit_generator.state = state
        rng.standard_normal(out=expected_z[i])
        expected_rolls[i] = rng.random()
    assert z.tobytes() == expected_z.tobytes()
    assert rolls.tobytes() == expected_rolls.tobytes()
    # the compared rows hold both kinds: bulk (both normals under their layer's
    # threshold) and numpy's own draws, which stay a few percent
    _, thresholds = _ziggurat_tables()
    idx, rabs = (raw & np.uint64(0xFF)).astype(np.intp), raw >> np.uint64(9) & np.uint64(2**52 - 1)
    fallback = ~np.all(rabs < thresholds[idx], axis=1)
    assert 0 < np.count_nonzero(fallback) < 0.05 * n


@pytest.mark.parametrize("sign", (0, 1))
def test_every_ziggurat_threshold_is_on_numpys_fast_path(sign):
    """One below each layer's threshold, numpy returns +-rabs * wi[idx] from one output.

    The state is set through PCG64's public state setter so that its next output carries
    (idx, sign, rabs); the next state's low word is that output when its high word is 0.
    """
    wi, thresholds = _ziggurat_tables()
    assert not wi.flags.writeable and not thresholds.flags.writeable  # cached for every caller
    assert thresholds[1] == 0  # numpy's layer 1 never takes the fast path
    bits = np.random.PCG64(0)
    rng, inc = np.random.Generator(bits), 2**100 + 12345
    inverse = pow(_PCG_MULT, -1, 2**128)
    for idx in np.flatnonzero(thresholds):
        rabs = int(thresholds[idx]) - 1
        assert 0 <= rabs < 2**52
        after = rabs << 9 | sign << 8 | int(idx)
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": (after - inc) * inverse % 2**128, "inc": inc}}
        value = np.float64(rabs) * wi[idx]
        assert np.float64(rng.standard_normal()).tobytes() == (-value if sign else value).tobytes()
        assert bits.state["state"]["state"] == after, idx


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


def assert_samples_are_keyed_draws(seed, n, jitter, warm_jitter):
    """monte_carlo_jitter's draws, bytes equal to default_rng((seed, i)), on a cold or warmed cache."""
    _keyed_draws.cache_clear()
    model = ErrorModel(rel_timing_jitter=jitter, detector_efficiency=0.5, samples=n, seed=seed)
    if warm_jitter is not None:
        monte_carlo_jitter(GenerationConfig(p=0.5), dataclasses.replace(model, rel_timing_jitter=warm_jitter))
    samples = monte_carlo_jitter(GenerationConfig(p=0.5), model).samples
    assert _keyed_draws.cache_info().misses == 1
    eps_t1, eps_t2, detected = keyed_draws(seed, n, jitter, 0.5)
    assert samples.eps_t1.tobytes() == eps_t1.tobytes()
    assert samples.eps_t2.tobytes() == eps_t2.tobytes()
    assert samples.detected.tobytes() == detected.tobytes()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
@pytest.mark.parametrize("jitter", EDGE_JITTERS)
def test_every_jitter_scales_the_keyed_normals_bit_for_bit(seed, jitter):
    assert_samples_are_keyed_draws(seed, 60, jitter, None)
    for warm_jitter in EDGE_JITTERS:
        assert_samples_are_keyed_draws(seed, 60, jitter, warm_jitter)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
       n=st.integers(1, 40), jitter=st.floats(0.0, 1.0),
       warm_jitter=st.one_of(st.none(), st.floats(0.0, 1.0)))
def test_keyed_draws_property(seed, n, jitter, warm_jitter):
    assert_samples_are_keyed_draws(seed, n, jitter, warm_jitter)


def test_warm_cache_leaves_the_next_run_unchanged():
    def run(**changes):
        model = ErrorModel(rel_timing_jitter=1e-2, samples=200, seed=11, **changes)
        return monte_carlo_jitter(GenerationConfig(p=0.5), model).samples.tobytes()

    _keyed_draws.cache_clear()
    cold = run()
    z, rolls = _keyed_draws(11, 200)
    assert not z.flags.writeable and not rolls.flags.writeable
    with pytest.raises(ValueError):
        z[0, 0] = 0.0
    for changes in ({"jitter_t1": False}, {"detector_efficiency": 0.25}):
        _keyed_draws.cache_clear()
        run(**changes)
        assert run() == cold
        assert _keyed_draws.cache_info().hits == 1  # the second run reused the first one's draws


def test_package_import_leaves_numpy_random_unloaded():
    # numpy 1.x loads numpy.random with numpy itself; 2.x loads it lazily
    probe = ("import sys, {}; "
             "print(*(m in sys.modules for m in ('numpy.random', 'gbscavity._streams')))")
    env = {**os.environ, "PYTHONPATH": str(Path(gbscavity.__file__).parents[1])}

    def loaded(modules):
        proc = subprocess.run([sys.executable, "-c", probe.format(modules)], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        return proc.stdout.split()

    numpy_random, streams = loaded("gbscavity, gbscavity.cli")
    assert streams == "False"  # the first Monte Carlo run loads the streams module
    assert numpy_random == loaded("numpy")[0]

"""Property test: the batched generation kernel against the scalar oracle.

`generation_batch` must give the p2 and fidelity of `run_generation` at
every point of its input arrays to 1e-14, raise the same exception class
wherever the scalar pipeline raises (a whole batch raises the error of its
first failing point), and reproduce the analytic `predicted_psi2` fidelity
at the nominal transit times.  On whole arrays it must also match the
earlier complex three-level kernel, kept in `oracle.py`.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle import generation_batch_reference

from gbscavity import (
    GT_FIRST,
    GBSParams,
    GenerationConfig,
    fidelity,
    generation_batch,
    gt_second,
    make_gbs,
    predicted_psi2,
    run_generation,
)

TOL = 1e-14

probabilities = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
phases = st.floats(-10.0, 10.0)


@st.composite
def configs(draw):
    return GenerationConfig(
        p=draw(probabilities),
        phi1=draw(phases),
        omega=draw(phases),  # with dt_gap = 1, omega is the free phase omega*dt_gap
        dt_gap=1.0,
        n_max=draw(st.integers(2, 8)),
        m2=draw(st.integers(0, 16)),
    )


def largest_transit(n_max):
    """The largest g*t whose Rabi angle g*t*sqrt(max(n_max, 1) + 1) is finite,
    found by stepping through the doubles around float max / sqrt(...)."""
    scale = math.sqrt(max(n_max, 1) + 1)
    gt = sys.float_info.max / scale
    while math.isinf(gt * scale):
        gt = math.nextafter(gt, 0.0)
    while math.isfinite(math.nextafter(gt, math.inf) * scale):
        gt = math.nextafter(gt, math.inf)
    return gt


@st.composite
def jittered(draw):
    """Transits within 20% of the nominal ones, or at the overflow edge: the
    largest allowed g*t, either sign, and the doubles on both sides of it."""
    config = draw(configs())
    top = largest_transit(config.n_max)
    edge = st.sampled_from([sign * gt for sign in (1.0, -1.0)
                            for gt in (math.nextafter(top, 0.0), top, math.nextafter(top, math.inf))])

    def transits(nominal):
        return st.one_of(st.floats(-0.2, 0.2).map(lambda eps: nominal * (1.0 + eps)), edge)

    points = draw(st.lists(st.tuples(transits(GT_FIRST), transits(gt_second(config.m2))),
                           min_size=1, max_size=6))
    return config, np.array([a for a, _ in points]), np.array([b for _, b in points])


def _batch(config, gt1, gt2):
    """generation_batch with numpy warnings raised: a warning means a check came too late."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return generation_batch(config, gt1, gt2)


def _outcome(call):
    """(result, None) or (None, exception) of call()."""
    try:
        return call(), None
    except Exception as exc:  # any class: the test compares classes
        return None, exc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(jittered())
@example(case=(GenerationConfig(p=0.5), np.array([np.inf]), np.array([1.0])))
@example(case=(GenerationConfig(p=1.0), np.array([0.0]), np.array([1.0])))
@example(case=(GenerationConfig(p=1.0), np.array([GT_FIRST]), np.array([0.0])))
@example(case=(GenerationConfig(p=0.5, n_max=4), np.array([GT_FIRST]), np.array([1e308])))
# p = 1 and transits near 0: p2 under the normal doubles, where its squares lose digits
@example(case=(GenerationConfig(p=1.0, omega=0.3, dt_gap=1.0), np.array([3e-80]), np.array([3e-80])))
@example(case=(GenerationConfig(p=1.0), np.array([1e-100, GT_FIRST]), np.array([1e-100, 1.0])))
# points failing in different ways: atom 2 first (its p2 underflows), then atom 1
@example(case=(GenerationConfig(p=1.0), np.array([GT_FIRST, 0.0]), np.array([1e-200, 5.0])))
# 0-d inputs, and a 0-d gt1 broadcast against an array gt2
@example(case=(GenerationConfig(p=0.37, phi1=0.4, omega=0.9, dt_gap=1.0),
               np.array(1.7960925212716141), np.array(32.264025822494595)))
@example(case=(GenerationConfig(p=0.3, n_max=3), np.array(GT_FIRST * 1.01),
               gt_second(5) * np.array([0.9, 1.0, 1.1])))
def test_batch_matches_scalar_pipeline(case):
    config, gt1, gt2 = case
    expected, errors = [], []
    for a, b in np.broadcast(gt1, gt2):
        report, scalar_error = _outcome(lambda: run_generation(config, gt1=a, gt2=b))
        errors.append(scalar_error)
        batch, batch_error = _outcome(lambda: _batch(config, a, b))
        assert type(batch_error) is type(scalar_error), (config, a, b)
        if isinstance(scalar_error, ValueError):  # a shared check: the same message too
            assert str(batch_error) == str(scalar_error), (config, a, b)
        if report is not None:
            assert 0.0 <= report.p2 <= 1.0 + 1e-12 and 0.0 <= batch[0] <= 1.0 + 1e-12
            assert 0.0 <= report.fidelity_to_target <= 1.0 and 0.0 <= batch[1] <= 1.0
            assert abs(batch[0] - report.p2) <= TOL
            assert abs(batch[1] - report.fidelity_to_target) <= TOL
            expected.append((report.p2, report.fidelity_to_target))
    if all(e is None for e in errors):  # no point raises: compare the whole batch
        p2, fid = _batch(config, gt1, gt2)
        assert np.shape(p2) == np.shape(fid) == np.broadcast_shapes(gt1.shape, gt2.shape)
        assert np.max(np.abs(np.ravel(p2) - [e[0] for e in expected])) <= TOL
        assert np.max(np.abs(np.ravel(fid) - [e[1] for e in expected])) <= TOL
    elif any("Rabi angle" in str(e) for e in errors):  # checked on the whole arrays first
        with pytest.raises(ValueError, match="Rabi angle"):
            _batch(config, gt1, gt2)
    else:  # the batch raises the error of its first failing point, in broadcast order
        first = next(e for e in errors if e is not None)
        _, batch_error = _outcome(lambda: _batch(config, gt1, gt2))
        assert type(batch_error) is type(first) and str(batch_error) == str(first)


@pytest.mark.parametrize("n_max", [2, 4])
def test_empty_batch_returns_empty_arrays(n_max):
    # no point, so no point fails
    p2, fid = generation_batch(GenerationConfig(p=0.5, n_max=n_max), np.array([]), np.array([]))
    for got in (p2, fid):
        assert got.shape == (0,) and got.dtype == np.float64


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(configs())
def test_nominal_times_match_predicted_state(config):
    gt2 = gt_second(config.m2)
    delta = 1.0 - math.sin(math.sqrt(2.0) * gt2)
    target = make_gbs(GBSParams(2, config.p, math.pi - config.phi_effective), config.n_max)
    predicted = predicted_psi2(config.p, config.phi_effective, delta, config.n_max)
    _, fid = _batch(config, GT_FIRST, gt2)
    assert abs(fid - fidelity(predicted, target)) <= TOL


def test_batch_rejects_overflowing_rabi_angle():
    # finite transits whose angle g*t*sqrt(n_max + 1) overflows, and non-finite ones,
    # with no numpy warning
    config = GenerationConfig(p=0.5)
    largest = largest_transit(config.n_max)
    for gt in (math.nextafter(largest, math.inf), -1.5e308, math.inf, math.nan):
        with pytest.raises(ValueError, match="Rabi angle"):
            generation_batch(config, GT_FIRST, np.array([gt]))
        with pytest.raises(ValueError, match="Rabi angle"):
            generation_batch(config, np.array([GT_FIRST, gt]), gt_second(5))
    p2, fid = generation_batch(config, GT_FIRST, np.array([largest, -largest]))
    assert np.all(np.isfinite(p2)) and np.all(np.isfinite(fid))


def test_batch_hands_a_post_selection_too_small_to_normalize_to_the_scalar_rule():
    # p2 = 2e-316 is subnormal, so the point goes through run_generation, which refuses it
    with pytest.raises(ValueError, match=r"^atom 2 never exits in \|down>.*2e-316"):
        generation_batch(GenerationConfig(p=1.0), GT_FIRST, np.array([1e-158]))


@pytest.mark.parametrize("gt1, gt2", [
    (GT_FIRST, gt_second(5)),
    # the squares of these points' terms round differently under the scalar power
    # (pow) than as products, so 0-d results are squared as array results are
    (1.7960925212716141, 32.264025822494595),
    (1.458479916814749, 33.06585146465156),
])
def test_a_0d_call_equals_the_one_element_call_bit_for_bit(gt1, gt2):
    config = GenerationConfig(p=0.37, phi1=0.4, omega=0.9, dt_gap=1.0)
    for got, want in zip(generation_batch(config, gt1, gt2),
                         generation_batch(config, np.array([gt1]), np.array([gt2]))):
        assert np.shape(got) == () and want.shape == (1,)
        assert np.float64(got).tobytes() == want.tobytes()


def test_batch_keeps_the_input_shape():
    # a (4, 5) grid, given whole or as broadcasting row and column, equals the
    # raveled call bit for bit and comes back in the grid's shape
    config = GenerationConfig(p=0.3, phi1=0.4, omega=0.91, dt_gap=1.0, m2=3)
    rng = np.random.default_rng(5)
    rows = GT_FIRST * (1.0 + 0.05 * rng.standard_normal((4, 1)))
    cols = gt_second(config.m2) * (1.0 + 0.05 * rng.standard_normal((1, 5)))
    gt1, gt2 = np.broadcast_arrays(rows, cols)
    flat = generation_batch(config, gt1.ravel(), gt2.ravel())
    for grid in (generation_batch(config, gt1, gt2), generation_batch(config, rows, cols)):
        for got, want in zip(grid, flat):
            assert got.shape == (4, 5)
            assert got.tobytes() == want.tobytes()


@st.composite
def jittered_arrays(draw):
    """Up to 64 transit pairs jittered by up to 20% on one or both transits, with the
    phases phi1 and omega*dt_gap up to +-1e3."""
    config = GenerationConfig(
        p=draw(probabilities),
        phi1=draw(st.floats(-1e3, 1e3)),
        omega=draw(st.floats(-1e3, 1e3)),  # dt_gap = 1
        dt_gap=1.0,
        n_max=draw(st.integers(2, 8)),
        m2=draw(st.integers(0, 16)),
    )
    jitter = draw(st.floats(0.0, 0.2))
    on1, on2 = draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    eps = np.array(draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                                 min_size=1, max_size=64)))
    return (config, GT_FIRST * (1.0 + jitter * on1 * eps[:, 0]),
            gt_second(config.m2) * (1.0 + jitter * on2 * eps[:, 1]))


def _benchmark_case():
    # the benchmark's README sweep at p = 1: both transits jittered by 1e-2
    eps = np.random.default_rng(7).standard_normal((64, 2))
    return (GenerationConfig(p=1.0), GT_FIRST * (1.0 + 1e-2 * eps[:, 0]),
            gt_second(5) * (1.0 + 1e-2 * eps[:, 1]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(jittered_arrays())
@example(case=_benchmark_case())
@example(case=(GenerationConfig(p=0.3, phi1=0.4, omega=1e6, dt_gap=1.0),
               GT_FIRST * np.array([0.9, 1.0, 1.1]), gt_second(5) * np.array([1.05, 1.0, 0.95])))
def test_batch_matches_complex_reference(case):
    config, gt1, gt2 = case
    got, got_error = _outcome(lambda: _batch(config, gt1, gt2))
    want, want_error = _outcome(lambda: generation_batch_reference(config, gt1, gt2))
    assert type(got_error) is type(want_error)
    assert str(got_error) == str(want_error)
    if want is not None:
        for new, old in zip(got, want):
            assert new.shape == old.shape == gt1.shape
            assert np.max(np.abs(new - old)) <= TOL

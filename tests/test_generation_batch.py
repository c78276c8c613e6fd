"""Property test: the batched generation kernel against the scalar oracle.

`generation_batch` must give the p2 and fidelity of `run_generation` at
every point of its input arrays to 1e-14, raise the same exception class
wherever the scalar pipeline raises, and reproduce the analytic
`predicted_psi2` fidelity at the nominal transit times.
"""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
def configs(draw, n_max=st.integers(0, 8)):
    return GenerationConfig(
        p=draw(probabilities),
        phi1=draw(phases),
        omega=draw(phases),  # with dt_gap = 1, omega is the free phase omega*dt_gap
        dt_gap=1.0,
        n_max=draw(n_max),
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
@example(case=(GenerationConfig(p=0.5, n_max=1), np.array([GT_FIRST]), np.array([1.0])))
@example(case=(GenerationConfig(p=0.0, n_max=1), np.array([GT_FIRST]), np.array([1.0])))
@example(case=(GenerationConfig(p=0.3, n_max=0), np.array([GT_FIRST]), np.array([1.0])))
@example(case=(GenerationConfig(p=1.0, n_max=0), np.array([GT_FIRST]), np.array([1.0])))
@example(case=(GenerationConfig(p=1e-20, n_max=0), np.array([GT_FIRST]), np.array([1.0])))
@example(case=(GenerationConfig(p=0.5), np.array([np.inf]), np.array([1.0])))
@example(case=(GenerationConfig(p=1.0), np.array([0.0]), np.array([1.0])))
@example(case=(GenerationConfig(p=1.0), np.array([GT_FIRST]), np.array([0.0])))
@example(case=(GenerationConfig(p=0.5, n_max=4), np.array([GT_FIRST]), np.array([1e308])))
def test_batch_matches_scalar_pipeline(case):
    config, gt1, gt2 = case
    expected = []
    for a, b in zip(gt1, gt2):
        report, scalar_error = _outcome(lambda: run_generation(config, gt1=a, gt2=b))
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
    if len(expected) == len(gt1):  # no point raises: compare the whole batch
        p2, fid = _batch(config, gt1, gt2)
        assert p2.shape == fid.shape == gt1.shape
        assert np.max(np.abs(p2 - [e[0] for e in expected])) <= TOL
        assert np.max(np.abs(fid - [e[1] for e in expected])) <= TOL
    else:  # one raising point makes the whole batch raise
        with pytest.raises((ValueError, RuntimeError)):
            _batch(config, gt1, gt2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(configs(n_max=st.integers(2, 8)))
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

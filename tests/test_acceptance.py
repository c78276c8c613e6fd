"""Acceptance gate: the eight headline checks, one verdict line each.

Run `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Each criterion prints its verdict before asserting, so a red run still
reports every line.
"""

import math

import numpy as np

from gbscavity import (
    ErrorModel,
    GBSParams,
    GenerationConfig,
    GT_PROBE,
    JointState,
    delta_exp,
    excitation_operator,
    fidelity,
    gauge_fix,
    inner,
    jc_closed_form,
    jc_expm_evolve,
    make_gbs,
    monte_carlo_jitter,
    optimize_t2,
    run_generation,
    run_measurement,
    spin1_triple,
    verify_eigenbasis,
)

N_MAX = 4


def _verdict(num, label, failures):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")
    assert ok, f"criterion {num} ({label}): " + "; ".join(failures[:5])


def _random_joint(rng, n_max=N_MAX):
    amps = rng.normal(size=2 * (n_max + 1)) + 1j * rng.normal(size=2 * (n_max + 1))
    amps[-1] = 0.0  # keep the top excited slot empty so evolution stays exact
    return JointState(amps / np.linalg.norm(amps), n_max)


def test_criterion_1_timing_optimum():
    failures = []
    best = optimize_t2()
    if best.m2 != 5:
        failures.append(f"winner m2={best.m2}, expected 5")
    if abs(best.gt2 - 41.0 * math.pi / 4.0) > 1e-12:
        failures.append(f"gt2={best.gt2!r}, expected 41*pi/4")
    if not 5e-5 <= best.delta <= 1.5e-4:
        failures.append(f"delta={best.delta!r} outside [5e-5, 1.5e-4]")
    _verdict(1, "timing optimum m2=5, gT2=41pi/4, delta ~ 1e-4", failures)


def test_criterion_2_fidelity_at_half():
    failures = []
    for phi1, omega, dt in ((0.0, 0.0, 0.0), (0.7, 1.3, 0.9), (2.1, 2.0, 0.25)):
        cfg = GenerationConfig(p=0.5, phi1=phi1, omega=omega, dt_gap=dt)
        infid = 1.0 - run_generation(cfg).fidelity_to_target
        if abs(infid - 1.6e-9) > 0.3e-9:
            failures.append(f"infidelity {infid!r} at phi1={phi1}, omega*dt={omega * dt}")
    _verdict(2, "generation infidelity at p=1/2 is 1.6e-9 (+/- 0.3e-9)", failures)


def test_criterion_3_success_probability_law():
    failures = []
    for p in np.linspace(0.0, 1.0, 11):
        p2 = run_generation(GenerationConfig(p=float(p))).p2
        if abs(p2 - (1.0 - 2e-4 * p**2)) > 2e-5:
            failures.append(f"p={p:.1f}: p2={p2!r}")
    _verdict(3, "P2(p) = 1 - 2e-4 p^2 within 2e-5 on the p grid", failures)


def test_criterion_4_single_shot_detection():
    failures = []
    for p in np.linspace(0.0, 1.0, 11):
        for phi in (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0):
            p, phi = float(p), float(phi)
            hit = run_measurement(make_gbs(GBSParams(2, p, phi), N_MAX), p, phi)
            if hit.prob_up < 1.0 - 1e-3:
                failures.append(f"hit (p={p:.1f}, phi={phi:.2f}): {hit.prob_up!r}")
            miss = run_measurement(
                make_gbs(GBSParams(2, 1.0 - p, math.pi + phi), N_MAX), p, phi
            )
            if miss.prob_down < 1.0 - 1e-3:
                failures.append(f"miss (p={p:.1f}, phi={phi:.2f}): {miss.prob_down!r}")
    _verdict(4, "single-shot detection >= 0.999 on the 11x4 grid", failures)


def test_criterion_5_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(20240917)
    for k in range(100):
        state = _random_joint(rng)
        gt = float(rng.uniform(0.1, 100.0))
        closed = gauge_fix(jc_closed_form(state, gt))
        oracle = gauge_fix(jc_expm_evolve(state, gt))
        worst = float(np.max(np.abs(closed.amps - oracle.amps)))
        if worst > 1e-10:
            failures.append(f"state {k}, gt={gt:.3f}: max dev {worst!r}")
    _verdict(5, "closed form matches expm oracle on 100 random states", failures)


def test_criterion_6_eigenbasis():
    failures = []
    rng = np.random.default_rng(7)
    points = [(0.0, 0.9), (1.0, 2.4)]
    points += [(float(rng.uniform()), float(rng.uniform(0.0, 2.0 * math.pi)))
               for _ in range(23)]
    for p, phi in points:
        report = verify_eigenbasis(p, phi)
        if report.max_residual >= 1e-12:
            failures.append(f"(p={p:.3f}, phi={phi:.3f}): residual {report.max_residual!r}")
        if np.max(np.abs(np.array(report.eigenvalues) - (1.0, 0.0, -1.0))) >= 1e-12:
            failures.append(f"(p={p:.3f}, phi={phi:.3f}): spectrum {report.eigenvalues}")
    _verdict(6, "J3 eigenbasis residuals < 1e-12 at 25 points", failures)


def test_criterion_7_error_budget():
    failures = []
    de = delta_exp(GT_PROBE, 1e-2)
    if abs(de - 0.207) > 1e-3:
        failures.append(f"delta_exp={de!r}, expected ~0.207")
    delta = optimize_t2().delta
    report = monte_carlo_jitter(
        GenerationConfig(p=1.0),
        ErrorModel(rel_timing_jitter=1e-2, samples=10000, seed=0),
    )
    # At p=1 the conditional state is exactly |2> regardless of timing, so the
    # jitter penalty shows up in the delivered (success-weighted) infidelity.
    infid = report.mean_delivered_infidelity
    if not infid > 10.0 * delta:
        failures.append(f"mean infidelity {infid!r} not > 10*delta ({10 * delta!r})")
    if not de / 2.0 <= infid <= de * 2.0:
        failures.append(f"mean infidelity {infid!r} not within factor 2 of delta_exp {de!r}")
    _verdict(7, "jitter-driven infidelity dominates delta, matches delta_exp", failures)


def test_criterion_8_invariant_suite():
    failures = []
    rng = np.random.default_rng(321)

    # unitarity of the closed-form evolution
    for _ in range(20):
        state = _random_joint(rng)
        out = jc_closed_form(state, float(rng.uniform(0.1, 50.0)))
        if abs(np.linalg.norm(out.amps) - 1.0) > 1e-12:
            failures.append("unitarity violated")
            break

    # conservation of the excitation number
    op = excitation_operator(N_MAX)
    for _ in range(20):
        state = _random_joint(rng)
        before = np.vdot(state.amps, op @ state.amps).real
        evolved = jc_closed_form(state, float(rng.uniform(0.1, 50.0)))
        after = np.vdot(evolved.amps, op @ evolved.amps).real
        if abs(before - after) > 1e-10:
            failures.append("excitation conservation violated")
            break

    # Gram identity of the orthonormal triple
    for p in (0.0, 0.3, 0.5, 0.8, 1.0):
        states = spin1_triple(p, 1.1)
        gram = np.array([[inner(a, b) for b in states] for a in states])
        if np.max(np.abs(gram - np.eye(3))) > 1e-12:
            failures.append(f"Gram identity violated at p={p}")

    # gap-phase compensation
    base = run_generation(GenerationConfig(p=0.7, phi1=0.4)).fidelity_to_target
    for odt in (1.0, 2.5, 6.0):
        cfg = GenerationConfig(p=0.7, phi1=0.4, omega=1.0, dt_gap=odt)
        if abs(run_generation(cfg).fidelity_to_target - base) > 1e-12:
            failures.append(f"gap compensation violated at omega*dt={odt}")

    # Born completeness of the readout
    for p in (0.0, 0.4, 1.0):
        report = run_measurement(make_gbs(GBSParams(2, p, 0.8), N_MAX), p, 0.8)
        if abs(report.prob_up + report.prob_down - 1.0) > 1e-12:
            failures.append(f"Born completeness violated at p={p}")
        # conditional states are normalized whenever their branch has weight
        for prob, field in ((report.prob_up, report.post_field_up),
                            (report.prob_down, report.post_field_down)):
            if prob > 1e-12 and abs(np.linalg.norm(field.amps) - 1.0) > 1e-12:
                failures.append("conditional state not normalized")

    _verdict(8, "invariant suite (unitarity, conservation, Gram, "
                "compensation, completeness)", failures)

"""Two-atom generation protocol, single-shot readout and error budget.

The pipeline deposits a two-photon generalized binomial state in an initially
empty lossless cavity: atom 1 crosses for g*T1 = pi/2 and leaves exactly one
excitation-or-vacuum binomial imprint, the field evolves freely for the gap
between atoms, and atom 2 (prepared with the phase advanced by omega*dt_gap)
crosses for g*T2 = pi/4 + 2 pi m2.  Conditioning on atom 2 exiting in |down>
leaves the cavity in the target state up to a residual delta = 1 - sin(g
sqrt(2) T2) that the timing index m2 minimizes (scan_t2, optimize_t2;
predicted_psi2 gives the field at any delta).  generation_batch runs the
pipeline at many transit times at once.  Readout sends a ground-state probe
through the cavity and decodes it in a Ramsey zone, mapping the target state
and its orthogonal partner to opposite atomic levels.  The error budget gives
the paper's jitter scale delta_exp, propagates transit-time jitter by Monte
Carlo (monte_carlo_jitter) and checks the coherence times (feasibility_check).
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import DEFAULT_N_MAX, M2_MAX, M2_MIN, N_MAX_LIMIT
from .dynamics import (_decode_entries, _free_phases, _jc_blocks, _ramsey_amps,
                       _require_finite_rabi_angles)
from .states import (FieldState, GBSParams, JointState, _check_finite, _check_int,
                     _check_weight, _gbs_amps, _norm, _require_finite_phases)

__all__ = [
    "GT_FIRST",
    "GT_PROBE",
    "GenerationConfig",
    "GenerationReport",
    "TimingResult",
    "MeasurementReport",
    "ErrorModel",
    "JitterReport",
    "gt_second",
    "scan_t2",
    "optimize_t2",
    "run_generation",
    "generation_batch",
    "predicted_psi2",
    "run_measurement",
    "distinguish_orthogonal",
    "delta_exp",
    "monte_carlo_jitter",
    "feasibility_check",
]

# First interaction: a quarter of the one-photon exchange period.
GT_FIRST = math.pi / 2.0


def gt_second(m2: int) -> float:
    """Admissible second interaction times g*T2 = pi/4 + 2 pi m2."""
    return math.pi / 4.0 + 2.0 * math.pi * m2


# Probe transit time for readout, at the optimized timing index m2 = 5.
GT_PROBE = gt_second(5)


@dataclass(frozen=True)
class GenerationConfig:
    """Inputs of the two-atom generation run.

    p and phi1 parametrize the atomic superpositions, omega is the bare
    cavity frequency, dt_gap the free-flight time between the two atoms, and
    m2 the second-interaction timing index.  Transits are given as the
    dimensionless products g*t, so the coupling itself never enters.
    """

    p: float
    phi1: float = 0.0
    omega: float = 0.0
    dt_gap: float = 0.0
    n_max: int = DEFAULT_N_MAX
    m2: int = 5

    def __post_init__(self):
        _check_weight("p", self.p)
        _check_int("m2", self.m2, M2_MIN, M2_MAX)
        _check_int("n_max", self.n_max, 2, N_MAX_LIMIT)  # holds the two-photon target
        for name in ("phi1", "omega", "dt_gap", "phi_effective"):
            _check_finite(name, getattr(self, name))
        # the largest free-field phase, in floats as free_field_evolve computes it
        _check_finite("the free-field phase n_max*omega*dt_gap",
                      float(self.n_max) * self.omega * self.dt_gap)
        _require_finite_phases(2, math.pi - self.phi_effective, "(pi - phi_effective)")

    @property
    def phi_effective(self) -> float:
        """Phase seen by atom 2 after compensating the free field evolution."""
        return self.phi1 + float(self.omega) * self.dt_gap


@dataclass(frozen=True)
class GenerationReport:
    """Conditional output of one generation run."""

    post_selected_field: FieldState
    p2: float
    fidelity_to_target: float
    target: GBSParams
    joint_before_projection: JointState


@dataclass(frozen=True)
class TimingResult:
    """One row of the second-interaction timing scan."""

    m2: int
    gt2: float
    sin_g_sqrt2_t2: float  # sin(g sqrt(2) T2)
    delta: float  # 1 - sin(g sqrt(2) T2), the two-photon residual


@dataclass(frozen=True)
class MeasurementReport:
    """Probe statistics and the conditional cavity states after readout."""

    prob_up: float
    prob_down: float
    post_field_up: FieldState
    post_field_down: FieldState

    @property
    def label(self) -> str:
        """The pair member the probe votes for: |up> (ties included) for (p, phi)."""
        return "2GBS(p,phi)" if self.prob_up >= self.prob_down else "2GBS(1-p,pi+phi)"

    @property
    def confidence(self) -> float:
        """Probability of the voted outcome; near 1/2 it flags a field outside the pair."""
        return self.prob_up if self.prob_up >= self.prob_down else self.prob_down


@dataclass(frozen=True)
class ErrorModel:
    """Monte Carlo model for relative interaction-time jitter.

    Both transit times are jittered as T (1 + eps) with independent
    eps ~ Normal(0, rel_timing_jitter); set jitter_t1 False to jitter only
    the second transit.  Detection is Bernoulli-thinned at
    detector_efficiency, and no-click samples drop out of the statistics.
    """

    rel_timing_jitter: float
    detector_efficiency: float = 1.0
    samples: int = 10000
    seed: int = 0
    jitter_t1: bool = True

    def __post_init__(self):
        # a relative jitter above 100% no longer describes a transit time
        _check_weight("rel_timing_jitter", self.rel_timing_jitter)
        _check_weight("detector_efficiency", self.detector_efficiency)
        # _streams._keyed_seed_words hashes sample i's index as one 32-bit word
        _check_int("samples", self.samples, 1, 2**32, "2**32")
        _check_int("seed", self.seed, 0, 2**64 - 1, "2**64 - 1")
        if not isinstance(self.jitter_t1, bool):
            raise ValueError(f"jitter_t1 must be True or False, got {self.jitter_t1!r}")


@dataclass(frozen=True)
class JitterReport:
    """Distribution of fidelity and success probability under timing jitter.

    Every statistic is taken over the detected samples, and is NaN (the
    quantiles empty) when none is detected.  mean_delivered_infidelity is the
    mean one-shot miss probability 1 - p2 * fidelity: the conditional
    fidelity alone cannot register timing jitter at p = 1 (the post-selected
    state is exactly |2> for any transit time), so the jitter penalty is also
    quantified on the delivered state, weighting each sample by its
    post-selection success.  samples is a read-only record array, one record
    per sample, with the columns index, eps_t1, eps_t2, fidelity, p2 and
    detected.
    """

    mean_fidelity: float
    std_fidelity: float
    mean_p2: float
    mean_delivered_infidelity: float
    quantiles: dict
    samples_used: int
    samples: np.recarray


def _post_field(block: np.ndarray, prob: float) -> FieldState:
    """Normalized field left by an atomic outcome; a zero-probability branch stays zero."""
    return FieldState._own(block if prob <= 0.0 else block / math.sqrt(prob), block.size - 1)


def run_generation(config: GenerationConfig, *, gt1: float | None = None,
                   gt2: float | None = None) -> GenerationReport:
    """Run the two-atom pipeline and condition on atom 2 exiting in |down>.

    At the nominal times atom 1 exits in |down> with certainty; when gt1 is
    overridden (timing jitter), the run conditions on that exit as well and
    folds its probability into p2.  gt1 and gt2 are dimensionless g*t
    overrides for the two transits.  Only the returned states are built.
    """
    gt1 = GT_FIRST if gt1 is None else gt1
    gt2 = gt_second(config.m2) if gt2 is None else gt2
    n_max = config.n_max
    _require_finite_rabi_angles(n_max, gt1=gt1, gt2=gt2)

    vacuum = np.eye(1, n_max + 1, dtype=np.complex128)[0]  # make_fock(0, n_max).amps
    atom_down, atom_up = _ramsey_amps(config.p, config.phi1)
    down, _ = _jc_blocks(atom_down * vacuum, atom_up * vacuum, gt1)
    p_first = _norm(down) ** 2
    if p_first <= 0.0:
        raise ValueError("atom 1 never exits in |down>; cannot condition")
    field = down / math.sqrt(p_first)

    field = field * _free_phases(n_max, config.omega, config.dt_gap)
    atom_down, atom_up = _ramsey_amps(config.p, config.phi_effective)
    down, up = _jc_blocks(atom_down * field, atom_up * field, gt2)

    p_second = _norm(down) ** 2
    post = _post_field(down, p_second)
    if not post.is_normalized():  # p_second is 0, or subnormal with too few digits left
        raise ValueError(f"atom 2 never exits in |down>; cannot condition on p_second={p_second!r}")
    target = GBSParams(2, config.p, math.pi - config.phi_effective)
    overlap = complex(np.vdot(post.amps, _gbs_amps(2, config.p, target.phi, n_max)))
    return GenerationReport(
        post_selected_field=post,
        p2=p_first * p_second,
        fidelity_to_target=min(1.0, abs(overlap) ** 2),
        target=target,
        joint_before_projection=JointState._own(np.concatenate([down, up]), n_max),
    )


def _down_terms(config: GenerationConfig):
    """The unnormalized |down> block D that atom 2 leaves, on real columns of theta = g*T:
    D_0 = d0, D_1 = a sin(theta1) cos(theta2) + b sin(theta2) and
    D_2 = c sin(theta1) sin(sqrt(2) theta2).  Returns (d0, a, b, c) and the conjugated
    target amplitudes t on |0>, |1>, |2>: p2 = |D|^2 and p2 * fidelity = |<t|D>|^2.
    """
    down1, up = _ramsey_amps(config.p, config.phi1)  # both atoms' |up> amplitude is sqrt(p)
    down2, _ = _ramsey_amps(config.p, config.phi_effective)
    free = np.exp(-1j * (config.omega * config.dt_gap))  # |1> over the gap
    target = _gbs_amps(2, config.p, math.pi - config.phi_effective, 2)
    return ((down2 * down1, -up * (down2 * free), -up * down1, config.p * free), target.conj())


def generation_batch(config: GenerationConfig, gt1, gt2):
    """run_generation over g*t overrides of any broadcastable shapes, in real arithmetic on
    the columns of _down_terms; returns (p2, fidelity) arrays of the broadcast shape.  Where
    any p2 is below the normal doubles (as at every atom-1 failure), all points go through
    run_generation in broadcast order: the first failing point's error is raised.
    """
    theta1, theta2 = np.asarray(gt1, dtype=float), np.asarray(gt2, dtype=float)
    _require_finite_rabi_angles(config.n_max, gt1=theta1, gt2=theta2)
    (d0, a, b, c), (t0, t1, t2) = _down_terms(config)
    # trig once per input value, on the inputs' own shapes; the columns x, y, z broadcast.
    # np.square, not ** 2: on a 0-d input the columns are numpy scalars, whose ** is C pow
    sin1, y = np.sin(theta1), np.sin(theta2)
    x, z = sin1 * np.cos(theta2), sin1 * np.sin(theta2 * math.sqrt(2.0))
    p2 = (np.square(x * a.real + y * b.real) + abs(d0) ** 2
          + np.square(x * a.imag + y * b.imag) + np.square(z) * abs(c) ** 2)
    if np.any(p2 < np.finfo(float).tiny):
        reports = [run_generation(config, gt1=u, gt2=v) for u, v in np.broadcast(theta1, theta2)]
        return tuple(np.reshape([getattr(r, k) for r in reports], p2.shape)[()]
                     for k in ("p2", "fidelity_to_target"))
    re = x * (t1 * a).real + (t0 * d0).real + y * (t1 * b).real + z * (t2 * c).real  # <t|D>
    im = x * (t1 * a).imag + (t0 * d0).imag + y * (t1 * b).imag + z * (t2 * c).imag
    return p2[()], np.minimum((np.square(re) + np.square(im)) / p2, 1.0)[()]


def predicted_psi2(p: float, phi_eff: float, delta: float, n_max: int = 2) -> FieldState:
    """Analytic post-selected field at two-photon residual delta in [0, 2].

    Amplitudes c_n [p^n (1-p)^(2-n)]^(1/2) e^(i n (pi - phi_eff)) with
    (c0, c1, c2) = (1, sqrt(2), 1 - delta), normalized exactly.  At delta = 0
    this is the two-photon binomial state (p, pi - phi_eff).
    """
    _check_weight("p", p)
    _check_finite("phi_eff", phi_eff)
    _check_finite("delta", delta)
    if not 0.0 <= delta <= 2.0:
        raise ValueError(f"delta must be in [0, 2], got {delta!r}")
    _check_int("n_max", n_max, 2, N_MAX_LIMIT)
    _require_finite_phases(2, math.pi - phi_eff, "(pi - phi_eff)")
    amps = _gbs_amps(2, p, math.pi - phi_eff, n_max)
    amps[2] *= 1.0 - delta
    norm = _norm(amps)
    if norm == 0.0:
        raise ValueError("predicted state vanishes for these parameters")
    return FieldState(amps / norm, n_max)


def run_measurement(field: FieldState, p: float, phi: float) -> MeasurementReport:
    """Send a ground-state probe through the cavity and decode it.

    The probe interacts for g*T = pi/4 + 10 pi, then passes the decoding
    Ramsey zone of parameters (p, phi).  Finding it in |up> detects the
    two-photon binomial state (p, phi); the orthogonal partner
    (1-p, pi + phi) drives it to |down> instead.  The conditional cavity
    states are returned normalized (a zero-probability branch stays zero).
    Any n_max works: the probe enters in |down>, so it only moves amplitude
    from |down, n> to |up, n-1> and never reaches |down, n_max + 1>.
    """
    if not field.is_normalized():
        raise ValueError("run_measurement requires a normalized field")
    # probe (1, 0) on (|down>, |up>) times the field, as atom (x) field forms it: same zero signs
    down, up = _jc_blocks((1 + 0j) * field.amps, 0j * field.amps, GT_PROBE)

    m00, m01, m10, m11 = _decode_entries(p, phi)
    down, up = m00 * down + m01 * up, m10 * down + m11 * up
    prob_down = _norm(down) ** 2
    prob_up = _norm(up) ** 2
    return MeasurementReport(
        prob_up=prob_up,
        prob_down=prob_down,
        post_field_up=_post_field(up, prob_up),
        post_field_down=_post_field(down, prob_down),
    )


def distinguish_orthogonal(field: FieldState, p: float, phi: float) -> MeasurementReport:
    """Label a field as either of the orthogonal two-photon binomial pair.

    A probe exiting in |up> votes for (p, phi), in |down> for
    (1-p, pi + phi).  The returned readout carries the vote as its label, and
    its confidence is the probability of the majority outcome; values near
    1/2 flag a field outside the pair.
    """
    return run_measurement(field, p, phi)


def scan_t2() -> list:
    """Timing table over the admissible g*T2 = pi/4 + 2 pi m2, m2 from M2_MIN to M2_MAX."""
    rows = []
    for m2 in range(M2_MIN, M2_MAX + 1):
        gt2 = gt_second(m2)
        sine = math.sin(math.sqrt(2.0) * gt2)
        rows.append(TimingResult(m2=m2, gt2=gt2, sin_g_sqrt2_t2=sine, delta=1.0 - sine))
    return rows


def optimize_t2() -> TimingResult:
    """Least-delta row of scan_t2; its rows ascend in m2 and min keeps the first tie."""
    return min(scan_t2(), key=lambda row: row.delta)


def delta_exp(gt2: float, rel_jitter: float) -> float:
    """Expected timing-error scale 2 (g T2)^2 (dT2 / T2)^2."""
    _check_finite("gt2", gt2)
    _check_finite("rel_jitter", rel_jitter)
    if not (gt2 >= 0.0 and rel_jitter >= 0.0):
        raise ValueError("gt2 and rel_jitter must be finite and non-negative")
    try:
        value = 2.0 * gt2**2 * rel_jitter**2
    except OverflowError:  # float ** raises where float * gives inf
        value = math.inf
    if value == math.inf:
        raise ValueError(f"delta_exp overflows at gt2={gt2}, rel_jitter={rel_jitter}")
    return value


def _quantiles(x, levels):
    """np.quantile(x, levels) of finite x with no -0.0 (no fidelity is), bit for bit, from one
    sort: numpy's 'linear' rule, virtual index (n - 1) q, and b - (b - a) (1 - t) where
    t >= 0.5.  Unlike np.quantile on numpy 2.x, it does not import numpy.ma."""
    x = np.sort(x)
    virtual = (x.size - 1) * np.asarray(levels, dtype=float)
    below = np.floor(virtual).astype(np.intp)
    a, b = x[np.minimum(below, x.size - 1)], x[np.minimum(below + 1, x.size - 1)]
    t, diff = virtual - below, b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def monte_carlo_jitter(config: GenerationConfig, model: ErrorModel) -> JitterReport:
    """Propagate interaction-time jitter through the generation pipeline.

    Sample i draws from its own stream np.random.default_rng((seed, i)), bit for bit, as
    gbscavity._streams describes.  The last (seed, samples) set is kept read-only, and a
    sweep's jitters share it, each scaling it bit for bit as rng.normal(0.0, jitter)
    would.  All samples go through generation_batch at once, and every statistic is
    reduced in sample order from the detected p2 and fidelity columns, so reports are
    deterministic for a fixed model.  Fidelity quantiles are reported at 5, 25, 50, 75
    and 95 percent, by numpy's 'linear' rule (np.quantile's default), from one sort.
    """
    from . import _streams  # loads numpy.random, which `import gbscavity` leaves out
    z, rolls = _streams._keyed_draws(model.seed, model.samples)
    eps = 0.0 + model.rel_timing_jitter * z  # loc + scale * z, as rng.normal; 0.0 + clears -0.0
    if not model.jitter_t1:
        eps[:, 0] = 0.0
    detected = rolls < model.detector_efficiency
    p2, fid = generation_batch(
        config, GT_FIRST * (1.0 + eps[:, 0]), gt_second(config.m2) * (1.0 + eps[:, 1])
    )
    samples = np.rec.fromarrays(
        (np.arange(model.samples), eps[:, 0], eps[:, 1], fid, p2, detected),
        names=("index", "eps_t1", "eps_t2", "fidelity", "p2", "detected"),
    )
    samples.flags.writeable = False

    kept_f = fid[detected]
    kept_p2 = p2[detected]
    if kept_f.size:
        levels = (0.05, 0.25, 0.5, 0.75, 0.95)
        quantiles = {
            f"{q:g}": float(v) for q, v in zip(levels, _quantiles(kept_f, levels))
        }
        if kept_f.min() == kept_f.max():
            # degenerate distribution (e.g. zero jitter): spread is exactly 0,
            # don't let the mean reduction introduce rounding noise
            mean_f, std_f = float(kept_f[0]), 0.0
        else:
            mean_f, std_f = float(np.mean(kept_f)), float(np.std(kept_f))
        mean_p2 = float(np.mean(kept_p2))
        delivered = float(np.mean(1.0 - kept_p2 * kept_f))
    else:
        quantiles = {}
        mean_f = std_f = mean_p2 = delivered = float("nan")
    return JitterReport(
        mean_fidelity=mean_f,
        std_fidelity=std_f,
        mean_p2=mean_p2,
        mean_delivered_infidelity=delivered,
        quantiles=quantiles,
        samples_used=int(kept_f.size),
        samples=samples,
    )


def feasibility_check(tau_at: float, tau_cav: float, interaction_times,
                      sequence_duration: float) -> tuple[bool, dict]:
    """Coherence budget from lifetimes and durations in seconds: (passed, margins).  It
    passes when every transit beats min(tau_at, tau_cav) and the whole sequence beats
    tau_at, all strictly.

    Every input is finite and positive, and there is at least one transit.  The
    margins are lifetime/duration, and one that overflows a float raises.
    """
    times = tuple(interaction_times)
    if not times:
        raise ValueError("interaction_times must not be empty")
    for name, value in (("tau_at", tau_at), ("tau_cav", tau_cav),
                        ("sequence_duration", sequence_duration),
                        *(("interaction_times", t) for t in times)):
        _check_finite(name, value)
        if not value > 0.0:
            raise ValueError("all lifetimes and durations must be positive")
    tau_min = min(tau_at, tau_cav)
    margins = {f"interaction_{i}": tau_min / t for i, t in enumerate(times)}
    margins["sequence"] = tau_at / sequence_duration
    for name, margin in margins.items():
        if margin == math.inf:
            raise ValueError(f"feasibility margin {name} (lifetime/duration) overflows")
    return all(t < tau_min for t in times) and sequence_duration < tau_at, margins

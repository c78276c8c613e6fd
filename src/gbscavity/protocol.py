"""Two-atom generation protocol, single-shot readout and error budget.

The pipeline deposits a two-photon generalized binomial state in an initially
empty lossless cavity: atom 1 crosses for g*T1 = pi/2 and leaves exactly one
excitation-or-vacuum binomial imprint, the field evolves freely for the gap
between atoms, and atom 2 (prepared with the phase advanced by omega*dt_gap)
crosses for g*T2 = pi/4 + 2 pi m2.  Conditioning on atom 2 exiting in |down>
leaves the cavity in the target state up to a residual delta = 1 - sin(g
sqrt(2) T2) that the timing index m2 minimizes.  Readout sends a ground-state
probe through the cavity and decodes it in a Ramsey zone, mapping the target
state and its orthogonal partner to opposite atomic levels.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    ATOL_ALGEBRA,
    DEFAULT_N_MAX,
    FIELD_OCCUPANCY_CUTOFF,
    M2_MAX,
    M2_MIN,
    N_MAX_LIMIT,
)
from .dynamics import (
    TruncationLeakError,
    _free_phases,
    _jc_blocks,
    _ramsey_amps,
    ramsey_decode_matrix,
)
from .states import (FieldState, GBSParams, JointState, _check_finite, _check_int,
                     _check_weight, fidelity, make_gbs)

__all__ = [
    "GT_FIRST",
    "GT_PROBE",
    "GenerationConfig",
    "GenerationReport",
    "TimingResult",
    "MeasurementReport",
    "DistinguishResult",
    "ErrorModel",
    "JitterReport",
    "FeasibilityInput",
    "FeasibilityReport",
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
        _check_int("n_max", self.n_max, 0, N_MAX_LIMIT)
        for name in ("phi1", "omega", "dt_gap", "phi_effective"):
            _check_finite(name, getattr(self, name))
        # the largest free-field phase, in floats as free_field_evolve computes it
        _check_finite("the free-field phase n_max*omega*dt_gap",
                      float(self.n_max) * self.omega * self.dt_gap)

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
    leakage: float


@dataclass(frozen=True)
class TimingResult:
    """One row of the second-interaction timing scan."""

    m2: int
    gt2: float
    delta: float           # 1 - sin(g sqrt(2) T2), the two-photon residual
    residual_first: float  # |1 - sin(g T2 + pi/4)|, zero by construction


@dataclass(frozen=True)
class MeasurementReport:
    """Probe statistics and the conditional cavity states after readout."""

    prob_up: float
    prob_down: float
    post_field_up: FieldState
    post_field_down: FieldState


@dataclass(frozen=True)
class DistinguishResult:
    """Single-shot label for a field assumed to be one of the orthogonal pair."""

    label: str
    confidence: float
    prob_up: float
    prob_down: float


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
        # sample i seeds its stream with (seed, i), and i is one 32-bit word
        _check_int("samples", self.samples, 1, 2**32, "2**32")
        _check_int("seed", self.seed, 0, 2**64 - 1, "2**64 - 1")
        if not isinstance(self.jitter_t1, bool):
            raise ValueError(f"jitter_t1 must be True or False, got {self.jitter_t1!r}")


@dataclass(frozen=True)
class JitterReport:
    """Distribution of fidelity and success probability under timing jitter.

    samples is a read-only record array, one record per sample, with the
    columns index, eps_t1, eps_t2, fidelity, p2 and detected.
    """

    mean_fidelity: float
    std_fidelity: float
    mean_p2: float
    quantiles: dict
    samples_used: int
    samples: np.recarray

    @property
    def mean_delivered_infidelity(self) -> float:
        """Mean one-shot miss probability 1 - p2 * fidelity over detected samples.

        The conditional fidelity alone cannot register timing jitter at p = 1
        (the post-selected state is exactly |2> for any transit time), so the
        jitter penalty is also quantified on the delivered state, weighting
        each sample by its post-selection success.
        """
        kept = self.samples[self.samples.detected]
        return float(np.mean(1.0 - kept.p2 * kept.fidelity)) if kept.size else float("nan")


@dataclass(frozen=True)
class FeasibilityInput:
    """Lifetimes and durations (seconds) for the coherence budget."""

    tau_at: float
    tau_cav: float
    interaction_times: tuple
    sequence_duration: float

    def __post_init__(self):
        times = tuple(float(t) for t in self.interaction_times)
        if not times:
            raise ValueError("interaction_times must not be empty")
        values = (self.tau_at, self.tau_cav, self.sequence_duration) + times
        if not all(math.isfinite(v) and v > 0.0 for v in values):
            raise ValueError("all lifetimes and durations must be positive")
        object.__setattr__(self, "interaction_times", times)


@dataclass(frozen=True)
class FeasibilityReport:
    passed: bool
    margins: dict


def _require_no_leak(where: str, *blocks: np.ndarray) -> float:
    """Population above the highest photon number the protocol may reach."""
    cut = FIELD_OCCUPANCY_CUTOFF + 1
    leak = 0.0
    for block in blocks:
        leak += np.sum(np.abs(block[cut:]) ** 2)
    if leak >= ATOL_ALGEBRA:
        raise TruncationLeakError(
            f"population {leak:.3e} above photon number "
            f"{FIELD_OCCUPANCY_CUTOFF} after {where}"
        )
    return float(leak)


def _post_field(block: np.ndarray, prob: float) -> FieldState:
    """Normalized field left by an atomic outcome; a zero-probability branch stays zero."""
    return FieldState(block if prob <= 0.0 else block / math.sqrt(prob), block.size - 1)


def _require_finite_rabi_angles(n_max: int, gt1, gt2) -> None:
    """Transit check of both generation paths; sqrt(2) floors it for the batch's theta2*sqrt(2)."""
    with np.errstate(over="ignore"):  # an angle that overflows to inf fails, without a warning
        scale = math.sqrt(max(n_max, 1) + 1)
        if not all(np.isfinite(np.abs(gt) * scale).all() for gt in (gt1, gt2)):
            raise ValueError("Rabi angle g*t*sqrt(max(n_max, 1) + 1) must be finite, "
                             f"got gt1={gt1}, gt2={gt2}")


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
    _require_finite_rabi_angles(n_max, gt1, gt2)

    vacuum = np.eye(1, n_max + 1, dtype=np.complex128)[0]  # make_fock(0, n_max).amps
    atom_down, atom_up = _ramsey_amps(config.p, config.phi1)
    down, _ = _jc_blocks(atom_down * vacuum, atom_up * vacuum, gt1)
    p_first = float(np.linalg.norm(down) ** 2)
    if p_first <= 0.0:
        raise ValueError("atom 1 never exits in |down>; cannot condition")
    field = down / math.sqrt(p_first)
    _require_no_leak("the first transit", field)

    field = field * _free_phases(n_max, config.omega, config.dt_gap)
    atom_down, atom_up = _ramsey_amps(config.p, config.phi_effective)
    down, up = _jc_blocks(atom_down * field, atom_up * field, gt2)
    leakage = _require_no_leak("the second transit", down, up)

    p_second = float(np.linalg.norm(down) ** 2)
    if p_second <= 0.0:
        raise ValueError("atom 2 never exits in |down>; cannot condition")
    post = _post_field(down, p_second)
    target = GBSParams(2, config.p, math.pi - config.phi_effective)
    return GenerationReport(
        post_selected_field=post,
        p2=p_first * p_second,
        fidelity_to_target=fidelity(post, make_gbs(target, n_max)),
        target=target,
        joint_before_projection=JointState(np.concatenate([down, up]), n_max),
        leakage=leakage,
    )


def generation_batch(config: GenerationConfig, gt1, gt2):
    """run_generation over arrays of g*t overrides; returns (p2, fidelity).

    The same transition rules and checks on the {|0>, |1>, |2>} block, which
    holds every amplitude the pipeline reaches.  At n_max < 2 no two-photon
    target fits, so every point raises and run_generation picks the error: a
    truncation check computed twice can land on both sides of its threshold
    by rounding.  One failing point fails the batch.
    """
    n_max, root_p = config.n_max, math.sqrt(config.p)
    theta1, theta2 = np.asarray(gt1, dtype=float), np.asarray(gt2, dtype=float)
    _require_finite_rabi_angles(n_max, theta1, theta2)
    if n_max < 2:
        for a, b in np.broadcast(theta1, theta2):
            run_generation(config, gt1=a, gt2=b)
    down1 = np.exp(1j * config.phi1) * math.sqrt(1.0 - config.p)
    down2 = np.exp(1j * config.phi_effective) * math.sqrt(1.0 - config.p)
    f1 = -np.sin(theta1) * root_p  # atom 1 leaves (down1, f1) in the field
    p_first = abs(down1) ** 2 + f1**2
    if np.any(p_first <= 0.0):
        raise ValueError("atom 1 never exits in |down>; cannot condition")
    f0 = down1 / np.sqrt(p_first)
    f1 = f1 / np.sqrt(p_first) * np.exp(-1j * (config.omega * config.dt_gap))
    d = np.array(np.broadcast_arrays(  # the |down> block atom 2 leaves behind
        down2 * f0,
        np.cos(theta2) * (down2 * f1) - np.sin(theta2) * (root_p * f0),
        -np.sin(theta2 * math.sqrt(2.0)) * (root_p * f1),
    ))
    p_second = np.sum(np.abs(d) ** 2, axis=0)
    target = make_gbs(GBSParams(2, config.p, math.pi - config.phi_effective), n_max).amps
    if np.any(p_second <= 0.0):
        raise ValueError("atom 2 never exits in |down>; cannot condition")
    p2 = p_first * p_second
    fid = np.minimum(1.0, np.abs(target[:3].conj() @ d / np.sqrt(p_second)) ** 2)
    return p2, fid


def predicted_psi2(p: float, phi_eff: float, delta: float, n_max: int = 2) -> FieldState:
    """Analytic post-selected field at two-photon residual delta.

    Amplitudes c_n [p^n (1-p)^(2-n)]^(1/2) e^(i n (pi - phi_eff)) with
    (c0, c1, c2) = (1, sqrt(2), 1 - delta), normalized exactly.  At delta = 0
    this is the two-photon binomial state (p, pi - phi_eff).
    """
    _check_weight("p", p)
    _check_int("n_max", n_max, 2, N_MAX_LIMIT)
    coeff = (1.0, math.sqrt(2.0), 1.0 - delta)
    amps = np.zeros(n_max + 1, dtype=np.complex128)
    for n in range(3):
        mag = coeff[n] * math.sqrt(p**n * (1.0 - p) ** (2 - n))
        amps[n] = mag * np.exp(1j * n * (math.pi - phi_eff))
    norm = np.linalg.norm(amps)
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

    m = ramsey_decode_matrix(p, phi)
    down, up = m[0, 0] * down + m[0, 1] * up, m[1, 0] * down + m[1, 1] * up
    prob_down = float(np.linalg.norm(down) ** 2)
    prob_up = float(np.linalg.norm(up) ** 2)
    return MeasurementReport(
        prob_up=prob_up,
        prob_down=prob_down,
        post_field_up=_post_field(up, prob_up),
        post_field_down=_post_field(down, prob_down),
    )


def distinguish_orthogonal(field: FieldState, p: float, phi: float) -> DistinguishResult:
    """Label a field as either of the orthogonal two-photon binomial pair.

    A probe exiting in |up> votes for (p, phi), in |down> for
    (1-p, pi + phi).  The confidence is the probability of the majority
    outcome; values near 1/2 flag a field outside the pair.
    """
    report = run_measurement(field, p, phi)
    if report.prob_up >= report.prob_down:
        label = "2GBS(p,phi)"
        confidence = report.prob_up
    else:
        label = "2GBS(1-p,pi+phi)"
        confidence = report.prob_down
    return DistinguishResult(
        label=label,
        confidence=confidence,
        prob_up=report.prob_up,
        prob_down=report.prob_down,
    )


def scan_t2(m2_min: int = M2_MIN, m2_max: int = M2_MAX) -> list:
    """Timing table over the admissible window g*T2 = pi/4 + 2 pi m2."""
    _check_int("m2_min", m2_min, M2_MIN, M2_MAX)
    _check_int("m2_max", m2_max, m2_min, M2_MAX)  # an empty range fails here
    rows = []
    for m2 in range(m2_min, m2_max + 1):
        gt2 = gt_second(m2)
        rows.append(
            TimingResult(
                m2=m2,
                gt2=gt2,
                delta=1.0 - math.sin(math.sqrt(2.0) * gt2),
                residual_first=abs(1.0 - math.sin(gt2 + math.pi / 4.0)),
            )
        )
    return rows


def optimize_t2(m2_min: int = M2_MIN, m2_max: int = M2_MAX) -> TimingResult:
    """Best second interaction time: smallest delta, ties to smaller m2."""
    return min(scan_t2(m2_min, m2_max), key=lambda row: (row.delta, row.m2))


def delta_exp(gt2: float, rel_jitter: float) -> float:
    """Expected timing-error scale 2 (g T2)^2 (dT2 / T2)^2."""
    if not (0.0 <= gt2 < math.inf and 0.0 <= rel_jitter < math.inf):
        raise ValueError("gt2 and rel_jitter must be finite and non-negative")
    try:
        value = 2.0 * gt2**2 * rel_jitter**2
    except OverflowError:  # float ** raises where float * gives inf
        value = math.inf
    if value == math.inf:
        raise ValueError(f"delta_exp overflows at gt2={gt2}, rel_jitter={rel_jitter}")
    return value


# Hash constants of numpy's SeedSequence (O'Neill's seed_seq_fe, pool size 4).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _keyed_seed_words(seed: int, n: int) -> np.ndarray:
    """SeedSequence((seed, i)).generate_state(4, np.uint64) for all i < n, as (n, 4) uint64.

    numpy's mix_entropy and generate_state, run on uint32 columns with one
    entry per sample.  The seed gives 1 or 2 entropy words and the index
    i < 2**32 exactly 1, so the entropy never outgrows the pool of 4 and
    numpy's loop that mixes in words beyond the pool never runs; it is left
    out here.
    """
    u32 = np.uint32
    entropy = [u32(seed & _MASK32)] + ([u32(seed >> 32)] if seed >> 32 else [])
    entropy.append(np.arange(n, dtype=u32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ u32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * u32(hash_const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        result = u32(_MIX_MULT_L) * x - u32(_MIX_MULT_R) * y
        return result ^ (result >> u32(16))

    with np.errstate(over="ignore"):  # the hash wraps modulo 2**32 by design
        pool = [hashmix(entropy[k] if k < len(entropy) else u32(0)) for k in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        state = []
        out_const = _INIT_B
        for k in range(8):  # generate_state cycles over the pool for 8 uint32 words
            value = pool[k % 4] ^ u32(out_const)
            out_const = out_const * _MULT_B & _MASK32
            value = value * u32(out_const)
            state.append(value ^ (value >> u32(16)))
    # as numpy does: read each row of 8 uint32 words as 4 little-endian uint64
    state = np.stack(state, axis=1).astype("<u4", copy=False)
    return state.view("<u8").astype(np.uint64, copy=False)


@functools.lru_cache(maxsize=1)
def _keyed_draws(seed: int, n: int):
    """Read-only standard normals z (n, 2) and rolls (n,): row i is default_rng((seed, i))'s."""
    # numpy.random loads lazily on numpy 2.x; keep it out of `import gbscavity`
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Hands PCG64 the four uint64 seed words a SeedSequence would generate:
        PCG64 asks for generate_state(4, np.uint64) once, at construction."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=None):
            return self.words

    z, rolls = np.empty((n, 2)), np.empty(n)
    for i, words in enumerate(_keyed_seed_words(seed, n)):
        rng = Generator(PCG64(SeedWords(words)))
        rng.standard_normal(out=z[i])
        rolls[i] = rng.random()
    z.flags.writeable = rolls.flags.writeable = False
    return z, rolls


def monte_carlo_jitter(config: GenerationConfig, model: ErrorModel) -> JitterReport:
    """Propagate interaction-time jitter through the generation pipeline.

    Sample i draws from its own RNG stream np.random.default_rng((seed, i)),
    whose seed words are derived for all samples in one pass.  The draws
    depend only on (seed, samples), so the last set is kept read-only (24 B
    per sample) and a sweep's jitters share it, each scaling it bit for bit
    as rng.normal(0.0, jitter) would.  All samples go through
    generation_batch at once and the summary is reduced in sample order, so
    reports are deterministic for a fixed model.  Fidelity quantiles are
    reported at 5, 25, 50, 75 and 95 percent over the detected samples.
    """
    z, rolls = _keyed_draws(model.seed, model.samples)
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
            f"{q:g}": float(v) for q, v in zip(levels, np.quantile(kept_f, levels))
        }
        if kept_f.min() == kept_f.max():
            # degenerate distribution (e.g. zero jitter): spread is exactly 0,
            # don't let the mean reduction introduce rounding noise
            mean_f, std_f = float(kept_f[0]), 0.0
        else:
            mean_f, std_f = float(np.mean(kept_f)), float(np.std(kept_f))
        mean_p2 = float(np.mean(kept_p2))
    else:
        quantiles = {}
        mean_f = std_f = mean_p2 = float("nan")
    return JitterReport(
        mean_fidelity=mean_f,
        std_fidelity=std_f,
        mean_p2=mean_p2,
        quantiles=quantiles,
        samples_used=int(kept_f.size),
        samples=samples,
    )


def feasibility_check(inp: FeasibilityInput) -> FeasibilityReport:
    """Coherence budget: every transit must beat min(tau_at, tau_cav) and the
    whole sequence must beat tau_at, all strictly."""
    tau_min = min(inp.tau_at, inp.tau_cav)
    margins = {
        f"interaction_{i}": tau_min / t for i, t in enumerate(inp.interaction_times)
    }
    margins["sequence"] = inp.tau_at / inp.sequence_duration
    passed = all(t < tau_min for t in inp.interaction_times) and (
        inp.sequence_duration < inp.tau_at
    )
    return FeasibilityReport(passed=passed, margins=margins)

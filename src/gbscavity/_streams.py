"""Keyed Monte Carlo streams, made in bulk and bit for bit.

Sample i of a Monte Carlo run draws two standard normals, then a uniform roll, from its
own stream np.random.default_rng((seed, i)), so it is the same for any number of
samples.  _keyed_draws makes those draws for all samples at once: numpy's SeedSequence
hash (_keyed_seed_words) and PCG64 (_pcg_outputs) on integer columns, and the normals
on the installed numpy's ziggurat fast path (_ziggurat_tables).  This module imports
numpy.random, so the package loads it on its first Monte Carlo run, not at import.
"""

import functools
import math

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

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
        state = np.empty((n, 8), dtype="<u4")
        out_const = _INIT_B
        for k in range(8):  # generate_state cycles over the pool for 8 uint32 words
            value = pool[k % 4] ^ u32(out_const)
            out_const = out_const * _MULT_B & _MASK32
            value = value * u32(out_const)
            np.bitwise_xor(value, value >> u32(16), out=state[:, k])
    # as numpy does: read each row of 8 uint32 words as 4 little-endian uint64
    return state.view("<u8").astype(np.uint64, copy=False)


# PCG64's 128-bit LCG multiplier, split into uint64 words and the low word's 32-bit halves.
# Every operand of the bulk arithmetic is a uint64, so numpy 1.x and NEP 50 casting agree.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U64, _LOW32, _SHIFT32 = np.uint64, np.uint64(_MASK32), np.uint64(32)
_MULT_HI, _MULT_LO = _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & 2**64 - 1)
_MULT_B1, _MULT_B0 = _U64(_PCG_MULT >> 32 & _MASK32), _U64(_PCG_MULT & _MASK32)
_BLOCK = 2**11  # rows per bulk pass, so that its temporaries stay small whatever n is


@functools.cache
def _ziggurat_tables():
    """numpy's standard_normal layer widths wi and fast-path thresholds: an output o with
    idx = o & 0xff, sign = o >> 8 & 1 and rabs = o >> 9 & (2**52 - 1) below thresholds[idx]
    gives +-rabs * wi[idx] and uses no further output.  Read off the installed numpy with a
    local PCG64, set through its public state so that its next output is a chosen (idx, rabs).
    rabs = 1 reads wi[idx].  A threshold is kept only if numpy takes the fast path one below
    it; a layer that fails (layer 1 always) gets 0, so all of its rows fall back.
    """
    bits = PCG64(0)
    rng, inverse = Generator(bits), pow(_PCG_MULT, -1, 2**128)

    def draw(idx, rabs):  # numpy's normal, and whether it used exactly that one output
        after = rabs << 9 | idx  # a state whose XSL-RR output is itself: high word 0
        bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                      "state": {"state": (after - 1) * inverse % 2**128, "inc": 1}}
        return rng.standard_normal(), bits.state["state"]["state"] == after

    wi = np.array([draw(idx, 1)[0] for idx in range(256)])
    thresholds = np.zeros(256, dtype=_U64)
    for idx in range(256):  # about 2 below numpy's own; wi[-1] = wi[255] serves layer 0
        guess = math.floor(2**52 * wi[idx - 1] / wi[idx]) - 2
        if 1 <= guess <= 2**52 and draw(idx, guess - 1) == ((guess - 1) * wi[idx], True):
            thresholds[idx] = guess
    wi.flags.writeable = thresholds.flags.writeable = False
    return wi, thresholds


def _add128(hi, lo, b_hi, b_lo):
    """(hi, lo) + (b_hi, b_lo) mod 2**128 on (high, low) uint64 columns."""
    lo = lo + b_lo
    return hi + b_hi + (lo < b_lo).astype(_U64), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """PCG64's step state * multiplier + inc mod 2**128."""
    a1, a0 = lo >> _SHIFT32, lo & _LOW32  # lo * _MULT_LO to 128 bits, from 32-bit halves
    p00, p01, p10 = a0 * _MULT_B0, a0 * _MULT_B1, a1 * _MULT_B0
    mid = (p00 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = (a1 * _MULT_B1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
          + hi * _MULT_LO + lo * _MULT_HI)
    return _add128(hi, lo * _MULT_LO, inc_hi, inc_lo)


def _pcg_outputs(words, count):
    """The first count outputs of PCG64 seeded with each row of the seed words (n, 4)."""
    w0, w1, w2, w3 = words.T  # initstate = w0:w1 and initseq = w2:w3, high word first
    inc = (w2 << _U64(1) | w3 >> _U64(63), w3 << _U64(1) | _U64(1))  # initseq << 1 | 1
    state = _pcg_step(*_add128(*inc, w0, w1), *inc)  # 0 steps to inc; += initstate; step
    outputs = []
    for _ in range(count):
        state = _pcg_step(*state, *inc)
        value, rot = state[0] ^ state[1], state[0] >> _U64(58)  # XSL-RR
        outputs.append(value >> rot | value << ((_U64(64) - rot) & _U64(63)))
    return outputs


class SeedWords(ISeedSequence):
    """Hands PCG64 the four uint64 seed words a SeedSequence would generate:
    PCG64 asks for generate_state(4, np.uint64) once, at construction."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=None):
        return self.words


@functools.lru_cache(maxsize=1)
def _keyed_draws(seed: int, n: int):
    """Read-only standard normals z (n, 2) and rolls (n,): row i is default_rng((seed, i))'s.

    Each block of _BLOCK rows is seeded and advanced three outputs at once, on uint64
    columns: two normals on numpy's ziggurat fast path and the roll (o >> 11) * 2**-53.  Its
    rows with a normal off that path (about 3%) are then drawn by numpy itself, each from a
    PCG64 seeded with its words.
    """
    wi, thresholds = _ziggurat_tables()
    words = _keyed_seed_words(seed, n)
    z, rolls = np.empty((n, 2)), np.empty(n)
    for start in range(0, n, _BLOCK):
        rows, fast = slice(start, start + _BLOCK), True
        *normals, roll = _pcg_outputs(words[rows], 3)
        for k, out in enumerate(normals):
            idx, rabs = (out & _U64(0xFF)).astype(np.intp), out >> _U64(9) & _U64(2**52 - 1)
            x = rabs.astype(np.float64) * wi[idx]
            z[rows, k] = np.where(out & _U64(0x100), -x, x)
            fast = fast & (rabs < thresholds[idx])
        rolls[rows] = (roll >> _U64(11)).astype(np.float64) * 2.0**-53
        for i in start + np.flatnonzero(~fast):
            rng = Generator(PCG64(SeedWords(words[i])))
            rng.standard_normal(out=z[i])
            rolls[i] = rng.random()
    z.flags.writeable = rolls.flags.writeable = False
    return z, rolls

"""numpy's seeding, taken for a whole batch of seeds at once.

``np.random.SeedSequence`` hashes its entropy words into a pool of four
uint32 words and hashes the pool into its output, and ``PCG64`` turns
eight such words into its 128-bit state by two steps of its LCG. The
hash's constants follow only from the order of its steps, never from the
entropy, so every step runs on uint32 numpy arrays, one row per seed, and
gives numpy's values bit for bit: :func:`trial_seeds` the first word of
``SeedSequence((seed, t))`` for a range of trials t, :func:`pcg64_states`
the state of ``PCG64(s)`` for each seed s. A generator set to that state
draws exactly what ``default_rng(s)`` draws. The tests compare both with
numpy's own objects, so a numpy that seeded differently would fail them.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .core import _integer

# numpy's SeedSequence (a pool of four uint32 words, its hash and mix
# constants) and the multiplier of PCG64's 128-bit LCG
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1


def _word_count(value: int) -> int:
    """The count of 32-bit words SeedSequence reads from the integer
    ``value``: its little-endian words, at least one."""
    return (value.bit_length() + 31) // 32 or 1


@functools.lru_cache(maxsize=None)
def _seed_constants(width: int, words: int) -> tuple:
    """SeedSequence's hash constants for entropy of ``width`` >= 4 words
    and ``words`` output words, as (xor, multiplier) pairs of uint32
    columns: one per mixing step, then one for the output.

    Its hash k XORs constant k of a chain from INIT_A and multiplies by
    constant k + 1. Step 0 hashes the four entropy words into the pool,
    step 1 + s hashes pool word s once for each other pool word (row s is
    a placeholder), and step 1 + e, e >= 4, hashes entropy word e once for
    each pool word. The output hashes pool word i % 4 into word i by a
    chain from INIT_B.
    """
    def chain(start, mult, count):
        out = [start]
        for _ in range(count):
            out.append(out[-1] * mult & 0xFFFFFFFF)
        return out

    def pair(values, ks):
        return (np.array([values[k] for k in ks], dtype=np.uint32)[:, None],
                np.array([values[k + 1] for k in ks], dtype=np.uint32)[:, None])

    a = chain(_INIT_A, _MULT_A, 4 * width)
    steps = [pair(a, range(_POOL))]
    for src in range(_POOL):
        k = _POOL + (_POOL - 1) * src
        steps.append(pair(a, [k + d - (d >= src) for d in range(_POOL)]))
    for src in range(_POOL, width):
        k = _POOL * src
        steps.append(pair(a, range(k, k + _POOL)))
    return steps, pair(chain(_INIT_B, _MULT_B, words), range(words))


def _seed_words(values: list, width: int, words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(words)`` for every value of
    ``values``, its entropy the value's little-endian words zero-padded to
    ``width`` >= 4 words, as a (len(values), words) uint32 array.
    SeedSequence pads entropy shorter than its pool of four words with
    zeros, so entropy of up to four words may come padded to four.

    Each step runs on the whole batch (see :func:`_seed_constants`): the
    pool hashes the first four words, every pool word then mixes into the
    other three, each further entropy word mixes into all four, and word i
    of the output hashes pool word i % 4.
    """
    data = b"".join(v.to_bytes(4 * width, "little") for v in values)
    entropy = np.frombuffer(data, dtype="<u4").reshape(len(values), width)
    steps, output = _seed_constants(width, words)

    def hashed(x, xor, mult):
        v = (x ^ xor) * mult
        return v ^ (v >> _XSHIFT)

    def mixed(x, y):
        v = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return v ^ (v >> _XSHIFT)

    pool = hashed(entropy[:, :_POOL].T, *steps[0])
    for src in range(_POOL):
        new = mixed(pool, hashed(pool[src], *steps[1 + src]))
        new[src] = pool[src]
        pool = new
    for src in range(_POOL, width):
        pool = mixed(pool, hashed(entropy[:, src], *steps[1 + src]))
    return np.ascontiguousarray(hashed(pool[np.arange(words) % _POOL], *output).T)


def trial_seeds(seed: int, trials: range) -> list:
    """``int(SeedSequence((seed, t)).generate_state(1)[0])`` for every
    trial index t of ``trials``, a range counting up. The entropy (seed, t)
    is the seed's words, then t's: the integer seed + t * 2**(32 * the
    seed's words), read as their total count of words, which changes only
    where t's does.

    Raises:
        ValueError: seed or a trial index not an integer, or negative.
    """
    seed = _integer(seed, "seed")
    if seed < 0 or trials.start < 0:
        raise ValueError("seed and trial index must be non-negative")
    head = _word_count(seed)
    out = []
    t = trials.start
    while t < trials.stop:
        width = _word_count(t)
        stop = min(trials.stop, 1 << 32 * width)
        values = [seed | u << 32 * head for u in range(t, stop)]
        out += _seed_words(values, max(head + width, _POOL), 1)[:, 0].tolist()
        t = stop
    return out


def pcg64_states(seeds: Sequence[int]) -> list:
    """``PCG64(s)``'s 128-bit (state, inc) for each seed s.

    One batched SeedSequence per width of entropy gives each seed's eight
    words; read as four little-endian uint64 they are the initial state
    (high, low) and the stream (high, low), which the generator's seeding
    turns into (state, inc) by two LCG steps from state 0.

    Raises:
        ValueError: a seed that is not an integer, or negative.
    """
    seeds = [_integer(s, "seed") for s in seeds]
    if any(s < 0 for s in seeds):
        raise ValueError("seeds must be non-negative")
    words = np.empty((len(seeds), 8), dtype=np.uint32)
    # a seed below 2**128 has at most four words, so one padded width
    widths = [_word_count(s) if s >> 128 else _POOL for s in seeds]
    for width in set(widths):
        rows = [j for j, w in enumerate(widths) if w == width]
        words[rows] = _seed_words([seeds[j] for j in rows], width, 8)
    out = []
    for s_hi, s_lo, i_hi, i_lo in words.astype("<u4").view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        out.append(((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return out

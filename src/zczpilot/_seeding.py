"""Generators for runs of integer seeds, the streams of np.random.default_rng.

default_rng(seed) is Generator(PCG64(SeedSequence(seed))), and PCG64 is
seeded with SeedSequence(seed).generate_state(4, np.uint64).  That hash
costs about three times the draws of a small simulator trial.  For a seed
0 <= seed < 2**64 it reads only the seed's low and high 32-bit words,
through a sequence of hash constants that does not depend on the data, so
pcg64_words runs it for a whole array of seeds as uint32 array arithmetic.
The constants and the order of the steps are numpy's SeedSequence with
its default pool of four words (numpy/random/bit_generator.pyx:
hashmix, mix, mix_entropy and generate_state).  A seed below 2**32 has
one entropy word, and the pool hashes each missing word as 0, so its high
word 0 hashes the same.  checked_seed is the seed rule of every draw: a
seed outside [0, SEED_END) raises ValueError, not a different stream.
"""

import operator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

SEED_END = 2**64

_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_POOL = 4

# Seeds hashed per pcg64_words call in generators: the hash is a few
# dozen array operations, so a chunk spreads their call overhead over
# many trials, and it bounds the words held (32 bytes per seed).
_CHUNK = 4096


def _hash_constants(init, mult, calls):
    """The running constant of `calls` successive hashmix calls, as columns:
    the value each call XORs in, and the value it multiplies in after
    stepping the constant by mult."""
    const = [init]
    for _ in range(calls):
        const.append(const[-1] * mult & _MASK32)
    const = np.array(const, dtype=np.uint32)[:, None]
    return const[:-1], const[1:]


# mix_entropy hashes the pool's four words, then each word into each other
# word (12 calls); generate_state hashes 8 uint32 words from the pool.
_ENTROPY_XOR, _ENTROPY_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul
    return value ^ (value >> _SHIFT)


def _mix(x, y):
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> _SHIFT)


def checked_seed(seed):
    """seed as an int; TypeError when it is not an integer, ValueError
    when it is outside 0 <= seed < 2**64."""
    seed = operator.index(seed)
    if not 0 <= seed < SEED_END:
        raise ValueError(f"seed {seed} is outside 0 <= seed < 2**64")
    return seed


def pcg64_words(seeds):
    """SeedSequence(seed).generate_state(4, np.uint64) for each seed, as
    the C-contiguous rows of an (n, 4) uint64 array."""
    seeds = [operator.index(seed) for seed in seeds]
    for seed in (min(seeds, default=0), max(seeds, default=0)):
        checked_seed(seed)
    seeds = np.array(seeds, dtype=np.uint64)
    # the entropy words: low, high, and the missing words as 0
    pool = np.zeros((_POOL, len(seeds)), dtype=np.uint32)
    pool[0] = seeds & np.uint64(_MASK32)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, _ENTROPY_XOR[:_POOL], _ENTROPY_MUL[:_POOL])
    # Word src mixes into the other words in turn; it does not change
    # while it does, so its three hashes and mixes are one step.
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        calls = slice(_POOL + 3 * src, _POOL + 3 * src + 3)
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _ENTROPY_XOR[calls],
                                             _ENTROPY_MUL[calls]))
    # generate_state cycles through the pool twice for its 8 uint32 words,
    # and reads them as 4 little-endian uint64 words
    state = _hashmix(pool, _STATE_XOR.reshape(2, _POOL, 1),
                     _STATE_MUL.reshape(2, _POOL, 1)).reshape(2 * _POOL, -1)
    return state.T.astype("<u4", order="C").view("<u8").astype(np.uint64)


class _SeedWords(ISeedSequence):
    """Hands PCG64 the words that a SeedSequence would generate for it."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for generate_state(4, np.uint64) and nothing else
        return self.words


def generators(seeds):
    """Yield Generator(PCG64(...)) for each seed of a sequence of integers,
    the same stream as np.random.default_rng(seed) for each."""
    for start in range(0, len(seeds), _CHUNK):
        for words in pcg64_words(seeds[start:start + _CHUNK]):
            yield Generator(PCG64(_SeedWords(words)))

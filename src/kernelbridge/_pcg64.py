"""numpy's PCG64 stream under SeedSequence, computed with numpy integer arrays.

``_uniforms(seed)`` draws what ``numpy.random.default_rng(seed).random``
draws, bit for bit and call by call, without importing ``numpy.random``,
whose import also loads ``secrets``, ``hashlib`` and OpenSSL.  The
reference is ``numpy/random`` in numpy 2.x:

* ``SeedSequence(seed)`` hashes the little-endian 32-bit words of the seed
  into a pool of four words, and ``generate_state(4, uint64)`` draws the
  seed words from the pool;
* PCG64 (O'Neill 2014) takes them as a 128-bit state and increment and
  steps a 128-bit LCG; each output is the XSL-RR of the new state;
* ``random`` keeps the top 53 bits of each output, times 2**-53.

The draws are vectorized by jump-ahead: step j of a row of 256 starting at
state S is a**j S + (1 + a + ... + a**(j-1)) inc, so one table of 256
lanes and Python-int jumps of 256 give every state.  The 128-bit products
are formed in uint64 arrays, on chunks of rows of at most
``spectral._CHUNK`` draws.
"""

from __future__ import annotations

import numpy as np

from .spectral import _CHUNK

_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
#: SeedSequence's hash constants
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: the multiplier of PCG64's 128-bit LCG
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LANES = 256
#: rows of lanes per chunk of draws
_ROWS = _CHUNK // _LANES


def _hashmix(value: int, const: int, mult: int = _MULT_A) -> tuple[int, int]:
    """SeedSequence's hash of one word, and the next hash constant."""
    const_next = const * mult & _M32
    value = (value ^ const) * const_next & _M32
    return value ^ value >> 16, const_next


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of a pool word x with a hashed word y."""
    value = (_MIX_L * x - _MIX_R * y) & _M32
    return value ^ value >> 16


def _seed_state(seed: int) -> tuple[int, int]:
    """The 128-bit state and increment of PCG64 seeded by SeedSequence(seed)."""
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    pool, const = [], _INIT_A
    for i in range(4):
        value, const = _hashmix(words[i] if i < len(words) else 0, const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[4:]:
        for dst in range(4):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    # generate_state(4, uint64): eight 32-bit words, read in little-endian pairs
    halves, const = [], _INIT_B
    for i in range(8):
        value, const = _hashmix(pool[i % 4], const, _MULT_B)
        halves.append(value)
    w = [halves[2 * k] | halves[2 * k + 1] << 32 for k in range(4)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = (inc + (w[0] << 64 | w[1])) & _M128
    return (state * _MULT + inc) & _M128, inc


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64 bits of 128-bit ints, as uint64 arrays."""
    return (np.array([v & _M64 for v in values], dtype=np.uint64),
            np.array([v >> 64 for v in values], dtype=np.uint64))


def _outputs(a, c, starts: list[int]) -> np.ndarray:
    """XSL-RR outputs of the states a_j S + c_j for row starts S: (rows, lanes) uint64.

    ``a`` and ``c`` are the lanes' a_j and c_j as _halves.  uint64 products
    wrap mod 2**64; the high half of a_lo S_lo is summed from 32-bit pieces.
    """
    (a_lo, a_hi), (c_lo, c_hi) = a, c
    s_lo, s_hi = (half[:, None] for half in _halves(starts))
    a0, a1, s0, s1 = a_lo & _M32, a_lo >> 32, s_lo & _M32, s_lo >> 32
    p01, p10 = a0 * s1, a1 * s0
    high = ((a0 * s0 >> 32) + (p01 & _M32) + (p10 & _M32)) >> 32
    high += a1 * s1 + (p01 >> 32) + (p10 >> 32) + a_hi * s_lo + a_lo * s_hi + c_hi
    low = a_lo * s_lo
    low += c_lo
    high += low < c_lo
    low ^= high
    rot = high >> 58
    return (low >> rot) | (low << ((64 - rot) & 63))


def _uniforms(seed: int):
    """``numpy.random.default_rng(seed).random``, bit for bit: a function of n
    that returns the stream's next n float64 in [0, 1)."""
    state, inc = _seed_state(seed)
    powers, sums = [_MULT], [inc]  # a**j and (1 + ... + a**(j-1)) inc, j = 1 .. 256
    while len(powers) < _LANES:
        powers.append(powers[-1] * _MULT & _M128)
        sums.append((sums[-1] * _MULT + inc) & _M128)
    a, c = _halves(powers), _halves(sums)

    def random(n: int) -> np.ndarray:
        nonlocal state
        rows = -(-n // _LANES)
        out = np.empty((rows, _LANES))
        for lo in range(0, rows, _ROWS):
            starts = []
            for _ in range(min(_ROWS, rows - lo)):
                starts.append(state)
                state = (powers[-1] * state + sums[-1]) & _M128
            x = _outputs(a, c, starts)
            x >>= 11
            np.multiply(x, 2.0 ** -53, out=out[lo:lo + len(starts)])
        if n % _LANES:  # the stream goes on from the n-th draw of the last row
            state = (powers[n % _LANES - 1] * starts[-1] + sums[n % _LANES - 1]) & _M128
        return out.reshape(-1)[:n]

    return random

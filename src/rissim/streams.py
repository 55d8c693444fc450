"""Seeds and uniform draws: numpy's ``SeedSequence`` and ``PCG64``, bit for bit.

NEP 19 keeps the ``SeedSequence`` hash and the ``PCG64`` bit generator
stable across numpy releases, but not the methods of ``Generator``.  This
module computes both itself, so a run whose only randomness is uniform
never imports ``numpy.random`` (its legacy ``mtrand`` module, every bit
generator and ``secrets`` with it):

- :func:`seed_words` is ``SeedSequence(entropy, spawn_key=key)``'s
  ``generate_state(n)``, as Python ints;
- :func:`pcg64_state` is the (state, increment) of ``PCG64`` seeded from
  that sequence;
- :func:`uniform` is the sequence's first ``Generator.random()`` draw,
  :func:`uniform_blocks` its successive ``random(DRAW_CHUNK)`` arrays, and
  :func:`uniforms` its first ``n``: ``(raw >> 11) * 2**-53`` of each raw
  64-bit output.

A stream holds :data:`LANES` consecutive PCG64 states, as rows of high
and low 64-bit limbs, and turns them into that many draws at once; then
it jumps every lane ``LANES`` steps with one affine map mod 2**128,
applied in place with 32-bit partial products into three scratch rows.
A :data:`DRAW_CHUNK` block is four such turns, and allocates only its
floats.  The first :data:`SERIAL_STATES` states are stepped in Python;
each further round copies the lanes so far and jumps the copies.
:func:`normal_generator` is the one way to ``numpy.random``: a
``Generator`` on a ``PCG64`` set to :func:`pcg64_state`, for normal draws.
"""

from __future__ import annotations

import numpy as np

DRAW_CHUNK = 4096  # uniforms per block of every stream
LANES = 1024  # states a stream advances at once: a DRAW_CHUNK block is its lanes jumped four times
SERIAL_STATES = 64  # a stream's first states, stepped in Python before the lanes double
MASK32, MASK64, MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
POOL_WORDS = 4
HASH_INIT_A, HASH_MULT_A = 0x43B0D7E5, 0x931E8875
HASH_INIT_B, HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(entropy) -> list[int]:
    """``entropy`` as numpy coerces it: an int's 32-bit words, least
    significant first (0 is one word), and a tuple's entries' words in turn."""
    if not isinstance(entropy, int):
        return [word for value in entropy for word in _words(value)]
    if entropy < 0:
        raise ValueError(f"entropy must be >= 0, got {entropy}")
    words = [entropy & MASK32]
    while entropy := entropy >> 32:
        words.append(entropy & MASK32)
    return words


def seed_words(entropy, n_words: int, spawn_key: tuple[int, ...] = ()) -> list[int]:
    """The ``n_words`` 32-bit words of ``SeedSequence(entropy,
    spawn_key=spawn_key).generate_state(n_words)``; ``SeedSequence(entropy).spawn(3)``
    are the keys (0,), (1,) and (2,)."""
    words = _words(entropy)
    if spawn_key:  # a child's entropy is padded to the pool before its key
        words += [0] * (POOL_WORDS - len(words))
    words += _words(spawn_key)
    # Each hash xors in the running constant, steps it, multiplies by the new
    # value and xor-shifts: numpy's hashmix, written out (a call costs more).
    const, pool = HASH_INIT_A, []
    for word in (words + [0] * POOL_WORDS)[:POOL_WORDS]:
        value = (word ^ const) * (const := const * HASH_MULT_A & MASK32) & MASK32
        pool.append(value ^ value >> 16)
    pool += words[POOL_WORDS:]  # the words past the pool only mix in
    for src in range(len(pool)):
        for dst in range(POOL_WORDS):
            if src != dst:
                value = (pool[src] ^ const) * (const := const * HASH_MULT_A & MASK32) & MASK32
                value = (MIX_MULT_L * pool[dst] - MIX_MULT_R * (value ^ value >> 16)) & MASK32
                pool[dst] = value ^ value >> 16
    const, state = HASH_INIT_B, []
    for i in range(n_words):
        value = (pool[i % POOL_WORDS] ^ const) * (const := const * HASH_MULT_B & MASK32) & MASK32
        state.append(value ^ value >> 16)
    return state


def pcg64_state(entropy, spawn_key: tuple[int, ...] = ()) -> tuple[int, int]:
    """(state, increment) of ``PCG64`` seeded from the sequence: its four
    64-bit seed words are the initial state's and the stream's high and low halves."""
    w = seed_words(entropy, 8, spawn_key)
    seed = [w[i] | w[i + 1] << 32 for i in range(0, 8, 2)]  # the words as little-endian uint64
    initstate, initseq = seed[0] << 64 | seed[1], seed[2] << 64 | seed[3]
    inc = (initseq << 1 | 1) & MASK128
    return ((inc + initstate) * PCG_MULT + inc) & MASK128, inc


def uniform(entropy, spawn_key: tuple[int, ...] = ()) -> float:
    """The first ``Generator.random()`` draw of the seeded stream."""
    state, inc = pcg64_state(entropy, spawn_key)
    state = (state * PCG_MULT + inc) & MASK128
    hi, lo = state >> 64, state & MASK64
    x, rot = hi ^ lo, hi >> 58
    return ((x >> rot | x << (-rot & 63) & MASK64) >> 11) * 2.0**-53


def uniform_blocks(entropy, spawn_key: tuple[int, ...] = ()):
    """The seeded stream's draws, :data:`DRAW_CHUNK` at a time, as float64
    arrays: the arrays of successive ``Generator.random(DRAW_CHUNK)`` calls."""
    state, inc = pcg64_state(entropy, spawn_key)
    hi, lo, *scratch = np.empty((5, LANES), np.uint64)
    n, states = SERIAL_STATES, []
    for _ in range(n):
        state = (state * PCG_MULT + inc) & MASK128
        states.append(state)
    hi[:n] = [s >> 64 for s in states]
    lo[:n] = [s & MASK64 for s in states]
    while n < LANES:  # lanes [n, n + m) are lanes [0, m) jumped n steps
        m = min(n, LANES - n)
        hi[n:n + m], lo[n:n + m] = hi[:m], lo[:m]
        _affine(hi[n:n + m], lo[n:n + m], _jump(n, inc), [row[:m] for row in scratch])
        n += m
    jump = _jump(LANES, inc)
    while True:
        block = np.empty(DRAW_CHUNK)
        for first in range(0, DRAW_CHUNK, LANES):
            _uniforms(hi, lo, scratch, block[first:first + LANES])
            _affine(hi, lo, jump, scratch)
        yield block


def uniforms(entropy, n: int) -> np.ndarray:
    """The first ``n`` draws of the seeded stream: ``Generator.random(n)``."""
    out = np.empty(n)
    blocks = uniform_blocks(entropy)
    for first in range(0, n, DRAW_CHUNK):
        out[first:first + DRAW_CHUNK] = next(blocks)[:n - first]
    return out


def normal_generator(entropy, spawn_key: tuple[int, ...] = ()):
    """A numpy ``Generator`` on the seeded ``PCG64`` stream, for its normal draws;
    the only use of ``numpy.random``, imported here."""
    from numpy.random import PCG64, Generator

    bit_generator = PCG64(0)  # its own seeding is overwritten below
    state, inc = pcg64_state(entropy, spawn_key)
    bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }
    return Generator(bit_generator)


def _constant(value, dtype=np.uint64) -> np.ndarray:
    """``value`` as a read-only 0-d array: as a ufunc operand it costs less
    than a numpy or Python scalar."""
    array = np.array(value, dtype)
    array.flags.writeable = False
    return array


SHIFT_11, SHIFT_32, SHIFT_58, LOW_6, LOW_32 = map(_constant, (11, 32, 58, 63, MASK32))
UNIT = _constant(2.0**-53, np.float64)  # (raw >> 11) * UNIT is a draw


def _jump(steps: int, inc: int) -> tuple[np.ndarray, ...]:
    """``steps`` generator steps as one affine map mod 2**128, state * mult + add,
    as :func:`_affine` takes it: the 32-bit halves of the multiplier's low limb,
    then the low and high limbs of the multiplier and of the addend."""
    mult, add, a, c = 1, 0, PCG_MULT, inc
    while steps:
        if steps & 1:
            mult, add = mult * a & MASK128, (add * a + c) & MASK128
        a, c = a * a & MASK128, c * (a + 1) & MASK128
        steps >>= 1
    m_lo = mult & MASK64
    return tuple(map(_constant, (m_lo & MASK32, m_lo >> 32, m_lo, mult >> 64, add & MASK64, add >> 64)))


def _affine(hi: np.ndarray, lo: np.ndarray, jump: tuple[np.ndarray, ...], scratch) -> None:
    """Each state (hi, lo) = state * mult + add mod 2**128, in place.  The high
    64 bits of ``lo * m_lo`` come from its four 32-bit partial products, into
    the three scratch rows; no sum overflows."""
    m0, m1, m_lo, m_hi, a_lo, a_hi = jump
    s1, s2, s3 = scratch
    hi *= m_lo
    np.multiply(lo, m_hi, out=s1)
    hi += s1
    np.right_shift(lo, SHIFT_32, out=s3)  # x1, lo's high half
    np.multiply(s3, m1, out=s1)
    hi += s1
    np.bitwise_and(lo, LOW_32, out=s2)  # x0, lo's low half
    np.multiply(s2, m1, out=s1)
    s2 *= m0
    s2 >>= SHIFT_32
    s3 *= m0
    s3 += s2  # x1 * m0 + (x0 * m0 >> 32)
    np.bitwise_and(s3, LOW_32, out=s2)
    s1 += s2  # x0 * m1 + the low half of that
    s3 >>= SHIFT_32
    hi += s3
    s1 >>= SHIFT_32
    hi += s1
    lo *= m_lo
    lo += a_lo
    hi += a_hi
    np.less(lo, a_lo, out=s1)
    hi += s1  # the carry out of the low limb


def _uniforms(hi: np.ndarray, lo: np.ndarray, scratch, out: np.ndarray) -> None:
    """Into ``out``, ``Generator.random()``'s draw from each state: the top 53
    bits of its XSL-RR output (high xor low, rotated right by the top 6 bits)
    over 2**53."""
    x, rot, right = scratch
    np.bitwise_xor(hi, lo, out=x)
    np.right_shift(hi, SHIFT_58, out=rot)
    np.right_shift(x, rot, out=right)
    np.negative(rot, out=rot)
    rot &= LOW_6
    x <<= rot
    x |= right
    x >>= SHIFT_11
    np.multiply(x.view(np.int64), UNIT, out=out)  # below 2**53: int64 converts faster

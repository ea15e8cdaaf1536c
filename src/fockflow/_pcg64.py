"""numpy's ``default_rng(seed)`` draws, replayed in pure Python.

``default_rng`` hashes the seed through a ``SeedSequence`` into the state
and increment of a PCG64 generator (O'Neill, HMC-CS-2014-0905, 2014): a
128-bit linear congruential step whose output folds the state to 64 bits
by xor-shift-low and a random rotation (XSL-RR).  ``Generator.integers``
draws from that stream into a power-of-two range as numpy's
``Generator.integers`` does.  numpy bounds a range by Lemire's method
(ACM TOMACS 29(1), 2019), which for a power of two rejects nothing and
keeps the top bits: of one 32-bit word for a range of at most 2^32, else
of one 64-bit output.  A 32-bit word is the low half of an output, and the
high half is kept for the next 32-bit draw; 64-bit draws pass it by.
"""

__all__ = ["Generator"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL = 4  # SeedSequence's pool of 32-bit words


def _seed_state(seed: int) -> tuple[int, int]:
    """(initstate, initseq): ``SeedSequence(seed).generate_state(4, uint64)`` as PCG64 reads it."""
    entropy = [seed & _M32]  # 32-bit words, least significant first; 0 gives [0]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5  # INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32  # MULT_A
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = 0xCA01F9DD * x - 0x4973F715 * y & _M32  # MIX_MULT_L, MIX_MULT_R
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD  # INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32  # MULT_B
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    # eight words make four uint64 values, low word first; each 128-bit
    # seed half puts its first uint64 on top
    u = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    return u[0] << 64 | u[1], u[2] << 64 | u[3]


class Generator:
    """The draws of ``numpy.random.default_rng(seed)`` over power-of-two ranges."""

    def __init__(self, seed: int) -> None:
        initstate, initseq = _seed_state(seed)
        self._inc = inc = (initseq << 1 | 1) & _M128
        # from state 0: one step, add initstate, one more step
        self._state = (inc + initstate) * _MULT + inc & _M128
        self._kept = []  # the high half numpy keeps for its next 32-bit draw

    def outputs(self, count: int) -> list[int]:
        """The next ``count`` 64-bit outputs, as ``bit_generator.random_raw(count)`` gives them."""
        mult, inc, mask, m64 = _MULT, self._inc, _M128, _M64
        state = self._state
        out = []
        append = out.append
        for _ in range(count):
            state = state * mult + inc & mask
            # XSL-RR: xor the halves, rotate right by the top six bits (x * (2^64 + 1)
            # holds two copies of x, so one shift rotates)
            append(((state >> 64 ^ state) & m64) * 0x10000000000000001 >> (state >> 122) & m64)
        self._state = state
        return out

    def integers(self, bits: int, size: int) -> list[int]:
        """numpy's ``integers(0, 2**bits, size)``, for 1 <= bits <= 62."""
        if bits > 32:
            return [x >> 64 - bits for x in self.outputs(size)]
        outs = self.outputs((size - len(self._kept) + 1) // 2)
        words = [0] * (2 * len(outs))
        words[0::2] = [x & _M32 for x in outs]
        words[1::2] = [x >> 32 for x in outs]
        words = self._kept + words
        self._kept = words[size:]
        return [w >> 32 - bits for w in words[:size]]

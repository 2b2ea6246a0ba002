"""Counter-based random streams for reproducible parallel simulation.

Every variate is a pure function of (seed, channel, step, path index), so a
path's stream never depends on batching or evaluation order.  The block
cipher is Philox4x32-10: the 128-bit counter is laid out as (channel, step,
path_lo, path_hi), the 64-bit key is the user seed, and one invocation
yields two 53-bit uniforms.

Channel map used by the samplers in dimension d, disjoint for every d:

* 0: subordinator increment draws (the first Kanter pair, or the Poisson
  count),
* 1 .. ceil(d/2): Gaussian pairs for the continuous component (one pair per
  channel; 1..7 stay reserved for them),
* exact_channel(i, d) = CH_GAUSS + max(7, ceil(d/2)) + i: a step's draws
  past channel 0, consecutive from just past the Gaussian pairs.  A
  compound step takes the size pair of its jump in slot i from channel i; an
  exact increment takes its other draws from them (the sum kind's second
  Kanter pair, the relativistic kind's acceptance uniforms and later
  candidates).  Exact and compound draws never share a march,
* CH_WOS = 2**31: the radius draw of a walk-on-spheres sphere, the sphere
  index in the step slot; CH_WOS + 1 .. CH_WOS + ceil(d/2): its direction
  pairs.  The marcher's channels stay far below 2**31.

A counter's channel is the call's ``channel`` plus an optional per-counter
``offset`` (uniform_pair), so one call can draw several channels, such as
the size pairs of every jump of a chunk or the Gaussian pairs of every
coordinate, bit for bit as one call per channel would; a channel word past
32 bits is refused.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

__all__ = [
    "CH_SUB",
    "CH_GAUSS",
    "CH_WOS",
    "exact_channel",
    "PhiloxStream",
]

CH_SUB = 0
CH_GAUSS = 1
CH_WOS = 2**31


def exact_channel(i: int, d: int) -> int:
    """Channel i of a step's draws past rng.CH_SUB in dimension d:
    consecutive channels past the Gaussian pairs, of which at least seven are
    reserved, so dimensions up to 14 (and size-only draws, d = 0) share one
    layout."""
    return CH_GAUSS + max(7, (d + 1) // 2) + i


_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_U32 = np.uint64(32)
_MASK32 = np.uint64(0xFFFFFFFF)
# the Philox multipliers (M0, M1), in the order of the lanes (c2, c0) they
# meet in _rounds
_M_SWAPPED = np.array([[0xCD9E8D57], [0xD2511F53]], dtype=np.uint64)


def _round_keys(key_lo: int, key_hi: int) -> tuple[np.ndarray, np.ndarray]:
    j = np.arange(10, dtype=np.uint64)
    rk0 = ((np.uint64(key_lo) + j * _W0) & _MASK32).astype(np.uint32)
    rk1 = ((np.uint64(key_hi) + j * _W1) & _MASK32).astype(np.uint32)
    return rk0, rk1


def _stacked_keys(rk0, rk1) -> np.ndarray:
    """Round keys as a (10, 2, 1) uint64 array: (rk0[j], rk1[j]) for round j."""
    return np.stack([rk0, rk1], axis=1).astype(np.uint64)[:, :, None]


def _rounds(x: np.ndarray, y: np.ndarray, keys: np.ndarray) -> None:
    """Ten Philox rounds in place on x = (c0, c2) and y = (c1, c3).

    x and y are (2, n) uint64 arrays holding 32-bit words, so one product
    array carries both multiplications of a round and a round is five
    array operations whatever the batch size.
    """
    p = np.empty_like(x)
    swapped = x[::-1]
    for k in keys:
        np.multiply(_M_SWAPPED, swapped, out=p)  # (M1 * c2, M0 * c0)
        np.right_shift(p, _U32, out=x)
        x ^= y
        x ^= k
        np.bitwise_and(p, _MASK32, out=y)


class PhiloxStream:
    """Stateless generator addressed by (channel, step, path index)."""

    def __init__(self, seed: int):
        seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self.seed = seed
        self._keys = _stacked_keys(*_round_keys(seed & 0xFFFFFFFF, seed >> 32))

    def _lanes(self, channel: int, step, path_ids: np.ndarray, offset=None):
        """Philox output for the counters (channel + offset, step, path_lo,
        path_hi).

        ``step`` and ``offset`` are ints or integer arrays that broadcast to
        the shape of ``path_ids``; the counter keeps the low 32 bits of the
        step, and a channel word past 32 bits raises OverflowError.  Returns
        x = (c0, c2) and y = (c1, c3) as (2, *path_ids.shape) uint64 arrays.
        """
        ids = np.asarray(path_ids, dtype=np.uint64)
        x = np.empty((2,) + ids.shape, dtype=np.uint64)
        y = np.empty_like(x)
        word = np.uint32(channel)  # OverflowError outside [0, 2**32)
        x[0] = word
        if offset is not None:
            offset = np.asarray(offset, dtype=np.uint64)
            if np.any(offset > _MASK32 - np.uint64(word)):
                raise OverflowError(f"channel {channel} plus offset {offset.max()} "
                                    "is out of bounds for uint32")
            x[0] += offset
        np.bitwise_and(ids, _MASK32, out=x[1])
        y[0] = step & 0xFFFFFFFF
        np.right_shift(ids, _U32, out=y[1])
        _rounds(x.reshape(2, -1), y.reshape(2, -1), self._keys)
        return x, y

    def uniform_pair(self, channel: int, step, path_ids, *, offset=None
                     ) -> tuple[np.ndarray, np.ndarray]:
        """Two independent uniforms in (0,1) per (channel, step, path id) counter.

        ``step`` is an int or an integer array that broadcasts to the shape
        of ``path_ids``: a (K, 1) column of steps with a (K, n) grid of ids
        draws K steps of n paths in one call, bit for bit as K calls would.
        ``offset``, an unsigned integer array that broadcasts the same way,
        is added to ``channel`` counter by counter, so one call draws several
        channels bit for bit as one call per channel would; ``path_ids`` is
        then given in the full shape, one id per counter.

        Each uniform packs two output lanes into 53 mantissa bits with a
        half-ulp offset, so 0 and 1 are unreachable and ndtri is safe.
        """
        h, lo = self._lanes(channel, step, np.atleast_1d(path_ids), offset)
        # h = (c0 << 32 | c1, c2 << 32 | c3), then its top 53 bits
        h <<= _U32
        h |= lo
        h >>= np.uint64(11)
        u = h.astype(np.float64)
        u += 0.5
        u *= 2.0**-53
        return u[0], u[1]

    def normals(self, step, path_ids, d: int, base_channel: int = CH_GAUSS) -> np.ndarray:
        """(*path_ids.shape, d) standard normals from consecutive channels
        starting at base, coordinates 2j and 2j + 1 from the pair of channel
        base + j; ``step`` broadcasts as in uniform_pair.  Several pairs take
        one call, by offset."""
        ids = np.atleast_1d(path_ids)
        pairs = (d + 1) // 2
        if pairs == 1:
            u0, u1 = (u[..., None] for u in self.uniform_pair(base_channel, step, ids))
        else:
            u0, u1 = self.uniform_pair(base_channel, np.asarray(step)[..., None] if np.ndim(step) else step,
                                       np.broadcast_to(ids[..., None], ids.shape + (pairs,)),
                                       offset=np.arange(pairs, dtype=np.uint64))
        out = np.empty(ids.shape + (d,))
        out[..., 0::2] = ndtri(u0)
        out[..., 1::2] = ndtri(u1[..., : d // 2])
        return out

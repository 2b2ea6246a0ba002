import numpy as np
import pytest
from scipy.special import ndtri

from sbmpot import rng


def _philox(key_lo, key_hi, c0, c1, c2, c3):
    """Philox4x32-10 of one counter through the production stream: the key
    is the seed, c0 the channel, c1 the step and (c3, c2) the path id."""
    x, y = rng.PhiloxStream(key_hi << 32 | key_lo)._lanes(c0, c1, [c3 << 32 | c2])
    return int(x[0, 0]), int(y[0, 0]), int(x[1, 0]), int(y[1, 0])


# the known-answer vectors published with Random123 (kat_vectors, philox4x32_10)
def test_philox_known_answer_zeros():
    out = _philox(0, 0, 0, 0, 0, 0)
    assert out == (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)


def test_philox_known_answer_ones_complement():
    ff = 0xFFFFFFFF
    out = _philox(ff, ff, ff, ff, ff, ff)
    assert out == (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)


def test_philox_known_answer_pi_digits():
    out = _philox(0xA4093822, 0x299F31D0, 0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344)
    assert out == (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)


def test_uniform_pair_range_and_determinism():
    st = rng.PhiloxStream(123)
    ids = np.arange(4096, dtype=np.uint64)
    u0, u1 = st.uniform_pair(rng.CH_SUB, 7, ids)
    assert np.all(u0 > 0.0) and np.all(u0 < 1.0)
    assert np.all(u1 > 0.0) and np.all(u1 < 1.0)
    v0, v1 = rng.PhiloxStream(123).uniform_pair(rng.CH_SUB, 7, ids)
    assert np.array_equal(u0, v0) and np.array_equal(u1, v1)
    w0, _ = rng.PhiloxStream(124).uniform_pair(rng.CH_SUB, 7, ids)
    assert not np.array_equal(u0, w0)


def test_normals_moments():
    st = rng.PhiloxStream(42)
    ids = np.arange(200_000, dtype=np.uint64)
    z = st.normals(0, ids, 1)[:, 0]
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_counter_prefix_property():
    # the first N path ids of a larger run see exactly the same randomness
    st = rng.PhiloxStream(7)
    small = st.normals(3, np.arange(1000, dtype=np.uint64), 2)
    big = st.normals(3, np.arange(4000, dtype=np.uint64), 2)
    assert np.array_equal(big[:1000], small)


def test_channel_independence():
    st = rng.PhiloxStream(5)
    ids = np.arange(100_000, dtype=np.uint64)
    a = st.normals(0, ids, 1, base_channel=rng.CH_GAUSS)[:, 0]
    b = st.normals(0, ids, 1, base_channel=rng.exact_channel(0, 1))[:, 0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_channel_layout_disjoint():
    # the subordinator draw, the Gaussian pairs (the (d + 1) // 2 that
    # normals() reads), a step's other draws (exact_channel: an exact
    # increment's, or a compound step's jump sizes) and the walk-on-spheres
    # radius and direction pairs take increasing, non-overlapping channel
    # ranges inside the 32-bit channel word
    for d in range(65):
        pairs = (d + 1) // 2
        assert rng.CH_SUB < rng.CH_GAUSS
        assert rng.exact_channel(0, d) > rng.CH_GAUSS + pairs - 1
        assert [rng.exact_channel(i, d) for i in range(3)] == [rng.exact_channel(0, d) + i for i in range(3)]
        assert rng.exact_channel(2**20, d) < rng.CH_WOS
        assert rng.CH_WOS + pairs < 2**32
    assert [rng.exact_channel(i, 3) for i in range(3)] == [8, 9, 10]


def test_step_grid_matches_scalar_steps():
    # one call on a (K, n) counter grid gives the bits of K calls with
    # scalar steps; the counter keeps the low 32 bits of a step
    st = rng.PhiloxStream(99)
    ids = np.array([0, 5, 2**33 + 7, 2**64 - 1], dtype=np.uint64)
    steps = np.array([0, 1, 2**32 + 3, 3], dtype=np.uint64)[:, None]
    grid = np.broadcast_to(ids, (steps.shape[0], ids.size))
    u0, u1 = st.uniform_pair(rng.CH_SUB, steps, grid)
    z = st.normals(steps, grid, 3)
    assert u0.shape == grid.shape and z.shape == grid.shape + (3,)
    for i, step in enumerate(steps[:, 0].tolist()):
        v0, v1 = st.uniform_pair(rng.CH_SUB, step, ids)
        assert np.array_equal(u0[i], v0) and np.array_equal(u1[i], v1)
        assert np.array_equal(z[i], st.normals(step, ids, 3))
    assert np.array_equal(u0[2], u0[3]) and np.array_equal(z[2], z[3])
    assert not np.array_equal(u0[2], u0[1])


def test_channel_offset_matches_shifted_channel():
    # an offset per counter draws several channels in one call, bit for bit
    # as one call per channel would; (K, 1) steps broadcast as without one
    st = rng.PhiloxStream(17)
    ids = np.array([0, 3, 2**40 + 1, 2**64 - 1], dtype=np.uint64)
    steps = np.array([0, 9, 2**32 + 5], dtype=np.uint64)[:, None]
    grid = np.broadcast_to(ids, (steps.shape[0], ids.size))
    for k in (0, 1, 6, 2**31):
        got = st.uniform_pair(rng.CH_GAUSS, steps, grid, offset=np.uint64(k))
        want = st.uniform_pair(rng.CH_GAUSS + k, steps, grid)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), k
    offset = np.array([[0, 1, 7, 2**31], [5, 0, 3, 2], [1, 1, 1, 1]], dtype=np.uint64)
    u0, u1 = st.uniform_pair(rng.CH_GAUSS, steps, grid, offset=offset)
    for i, step in enumerate(steps[:, 0].tolist()):
        for j, k in enumerate(offset[i].tolist()):
            v0, v1 = st.uniform_pair(rng.CH_GAUSS + k, step, ids[j : j + 1])
            assert u0[i, j] == v0[0] and u1[i, j] == v1[0]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
def test_normals_take_coordinate_pairs_from_consecutive_channels(d):
    # coordinates 2j and 2j + 1 are ndtri of the pair of channel base + j,
    # for scalar and (K, 1) steps and both bases, however many pairs one
    # call draws
    st = rng.PhiloxStream(23)
    ids = np.array([0, 4, 2**35 + 1, 2**64 - 1], dtype=np.uint64)
    steps = np.array([0, 7, 2**32 + 2], dtype=np.uint64)[:, None]
    grid = np.broadcast_to(ids, (steps.shape[0], ids.size))
    for base in (rng.CH_GAUSS, rng.CH_WOS + 1):
        for step, path_ids in ((5, ids), (steps, grid)):
            z = st.normals(step, path_ids, d, base_channel=base)
            assert z.shape == path_ids.shape + (d,)
            for j in range((d + 1) // 2):
                u0, u1 = st.uniform_pair(base + j, step, path_ids)
                assert np.array_equal(z[..., 2 * j], ndtri(u0))
                assert 2 * j + 1 == d or np.array_equal(z[..., 2 * j + 1], ndtri(u1))


def test_channel_word_past_32_bits_is_refused():
    # a channel plus offset past 2**32 - 1 would carry into the step word
    # (or wrap around 2**64 to a small channel): refused, never aliased
    st = rng.PhiloxStream(1)
    ids = np.arange(3, dtype=np.uint64)
    st.uniform_pair(2**32 - 2, 0, ids, offset=np.array([0, 1, 1], dtype=np.uint64))
    with pytest.raises(OverflowError):
        st.uniform_pair(2**32, 0, ids)
    for channel, offset in ((2**32 - 2, [0, 2, 1]), (5, [2**64 - 5, 0, 0]), (0, [2**32, 0, 0])):
        with pytest.raises(OverflowError):
            st.uniform_pair(channel, 0, ids, offset=np.array(offset, dtype=np.uint64))

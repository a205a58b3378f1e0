"""Tests for GF(256) arithmetic and the Reed-Solomon codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.ec import GF256, ReedSolomon


# ------------------------------------------------------------------ GF256


def test_gf_mul_identity_and_zero():
    for a in range(256):
        assert GF256.mul(a, 1) == a
        assert GF256.mul(a, 0) == 0


def test_gf_mul_commutative():
    for a in (3, 7, 91, 200, 255):
        for b in (5, 11, 130, 254):
            assert GF256.mul(a, b) == GF256.mul(b, a)


def test_gf_inverse():
    for a in range(1, 256):
        assert GF256.mul(a, GF256.inv(a)) == 1


def test_gf_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF256.inv(0)


def test_gf_pow():
    assert GF256.pow(2, 0) == 1
    assert GF256.pow(0, 5) == 0
    assert GF256.pow(2, 2) == GF256.mul(2, 2)
    assert GF256.pow(3, 3) == GF256.mul(3, GF256.mul(3, 3))


def test_gf_mat_inv_roundtrip():
    m = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
    inv = GF256.mat_inv(m)
    identity = GF256.mat_mul(m, inv)
    assert identity == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_gf_singular_matrix_raises():
    with pytest.raises(ValueError):
        GF256.mat_inv([[1, 2], [1, 2]])


# ------------------------------------------------------------ ReedSolomon


def test_encode_produces_k_plus_m_shards():
    rs = ReedSolomon(k=2, m=1)
    shards = rs.encode(b"abcdef")
    assert len(shards) == 3
    assert all(len(s) == 3 for s in shards)


def test_systematic_data_shards_contain_payload():
    rs = ReedSolomon(k=2, m=1)
    shards = rs.encode(b"abcdef")
    assert shards[0] + shards[1] == b"abcdef"


def test_decode_with_all_shards():
    rs = ReedSolomon(k=3, m=2)
    data = bytes(range(100)) * 3
    shards = rs.encode(data)
    assert rs.decode(shards, len(data)) == data


@pytest.mark.parametrize("lost", [[0], [1], [2], [0, 1], [0, 2], [1, 2], [3, 4], [0, 4]])
def test_decode_with_any_two_losses(lost):
    rs = ReedSolomon(k=3, m=2)
    data = b"the quick brown fox jumps over the lazy dog" * 7
    shards = list(rs.encode(data))
    for i in lost:
        shards[i] = None
    assert rs.decode(shards, len(data)) == data


def test_decode_too_many_losses_raises():
    rs = ReedSolomon(k=2, m=1)
    shards = list(rs.encode(b"hello"))
    shards[0] = shards[1] = None
    with pytest.raises(ValueError):
        rs.decode(shards, 5)


def test_decode_wrong_slot_count_raises():
    rs = ReedSolomon(k=2, m=1)
    with pytest.raises(ValueError):
        rs.decode([b"x", b"y"], 2)


def test_reconstruct_single_shard():
    rs = ReedSolomon(k=2, m=2)
    data = b"0123456789abcdef"
    shards = list(rs.encode(data))
    original = shards[2]
    shards[2] = None
    shards[3] = None
    assert rs.reconstruct_shard(shards, 2, len(data)) == original


def test_empty_payload():
    rs = ReedSolomon(k=2, m=1)
    shards = rs.encode(b"")
    assert rs.decode(shards, 0) == b""


def test_invalid_profile_rejected():
    with pytest.raises(ValueError):
        ReedSolomon(k=0, m=1)
    with pytest.raises(ValueError):
        ReedSolomon(k=200, m=100)


@given(
    data=st.binary(min_size=0, max_size=2048),
    k=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=0, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(data, k, m):
    """encode->decode is the identity for any payload and profile."""
    rs = ReedSolomon(k=k, m=m)
    assert rs.decode(rs.encode(data), len(data)) == data


@given(
    data=st.binary(min_size=1, max_size=512),
    seed=st.integers(min_value=0, max_value=10**9),
)
@settings(max_examples=60, deadline=None)
def test_any_k_subset_decodes(data, seed):
    """Losing any m shards still decodes (MDS property)."""
    import random

    rs = ReedSolomon(k=3, m=2)
    shards = list(rs.encode(data))
    rng = random.Random(seed)
    for i in rng.sample(range(5), 2):
        shards[i] = None
    assert rs.decode(shards, len(data)) == data


# ------------------------------------------------------- known answers
#
# SHA-256 of the concatenated shards of ``encode`` over seeded payloads
# (``random.Random(length).randbytes(length)``): the exact bytes the
# codec writes, so a change to the field tables, the generator matrix
# or the shard layout cannot pass unnoticed.

ENCODE_DIGESTS = {
    (2, 1, 0): "709e80c88487a2411e1ee4dfb9f22a861492d20c4765150c0c794abd70f8147c",
    (2, 1, 1): "08c8ce66ae357a102874f714c7335f437ae746b99d33f1239e07b2e69430da31",
    (2, 1, 17): "996e1016003c66a584d9c51172d879aa016ec63ee25354e1a4a6a70506f4554f",
    (2, 1, 4099): "9461c08115a9cb2d8bf6485b80617ef9edfde67394108760da988d2a6bf770db",
    (2, 1, 32768): "a75db325e70aebbf28584eb189829a493c82668d9aa58d7b02ea0b53b95fbac1",
    (2, 1, 4194304): "e4ab7221f06323f5f174ca8f99d3d29b7b831daa79aa39529e7d542ef8d81970",
    (4, 2, 0): "b0f66adc83641586656866813fd9dd0b8ebb63796075661ba45d1aa8089e1d44",
    (4, 2, 1): "f1199e9edb289d4d5676294f5a77bfa89f3f0a0938e8d9a65edd7980e02f44dd",
    (4, 2, 17): "ab2119a3136035ac59056ef4bbd5016c1926c223f7a8ae6ec79913f16d231b61",
    (4, 2, 4099): "8f661a805ffcb74ac5da8a843dbc8169799d69993e8b054273a4deae47fd2b4e",
    (4, 2, 32768): "7fe76cb8f99ba21d2ddb171e6e4ea0cee6bb011b64f5594b40bf8a23f59e9164",
    (4, 2, 4194304): "ca622fb54fa664b789a1534259d4201818391427d2633d06f4d8b9df0f3e123f",
}


def seeded_payload(length):
    import random

    return random.Random(length).randbytes(length)


@pytest.mark.parametrize("k,m,length", sorted(ENCODE_DIGESTS))
def test_encode_known_answer(k, m, length):
    import hashlib

    shards = ReedSolomon(k=k, m=m).encode(seeded_payload(length))
    assert len(shards) == k + m
    assert len({len(s) for s in shards}) == 1
    digest = hashlib.sha256(b"".join(shards)).hexdigest()
    assert digest == ENCODE_DIGESTS[(k, m, length)]


@pytest.mark.parametrize("k,m,lost", [(2, 1, [0]), (4, 2, [1, 3])])
@pytest.mark.parametrize("length", [17, 4099, 32768])
def test_decode_and_reconstruct_known_answer(k, m, lost, length):
    """Decoding through parity (a data shard missing) and rebuilding
    that shard give back exactly the payload and the encoded shard."""
    rs = ReedSolomon(k=k, m=m)
    data = seeded_payload(length)
    shards = rs.encode(data)
    damaged = list(shards)
    for index in lost:
        damaged[index] = None
    assert rs.decode(damaged, length) == data
    for index in lost:
        assert rs.reconstruct_shard(damaged, index, length) == shards[index]

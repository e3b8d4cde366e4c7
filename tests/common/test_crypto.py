"""ECDSA / hashing primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.crypto import (
    A,
    B,
    GX,
    GY,
    N,
    P,
    PrivateKey,
    PublicKey,
    Signature,
    generate_keypair,
    hash_chain,
    sha256,
    sha256_hex,
    _INFINITY,
    _from_jacobian,
    _inv_mod,
    _jacobian_add,
    _scalar_mult,
    _to_jacobian,
)
from repro.errors import CryptoError, InvalidSignature


class TestHashing:
    def test_sha256_known_vector(self):
        assert sha256_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855")

    def test_sha256_bytes_length(self):
        assert len(sha256(b"abc")) == 32

    def test_hash_chain_depends_on_both_inputs(self):
        h1 = hash_chain(b"\x00" * 32, b"payload")
        h2 = hash_chain(b"\x01" * 32, b"payload")
        h3 = hash_chain(b"\x00" * 32, b"other")
        assert len({h1, h2, h3}) == 3


class TestKeys:
    def test_seeded_generation_is_deterministic(self):
        a, _ = generate_keypair(b"seed")
        b, _ = generate_keypair(b"seed")
        assert a.to_bytes() == b.to_bytes()

    def test_distinct_seeds_distinct_keys(self):
        a, _ = generate_keypair(b"seed-a")
        b, _ = generate_keypair(b"seed-b")
        assert a.to_bytes() != b.to_bytes()

    def test_public_key_roundtrip(self):
        _, pk = generate_keypair(b"rt")
        assert PublicKey.from_bytes(pk.to_bytes()) == pk

    def test_public_key_rejects_off_curve_point(self):
        with pytest.raises(CryptoError):
            PublicKey(1, 2)

    def test_private_key_rejects_out_of_range_scalar(self):
        with pytest.raises(CryptoError):
            PrivateKey(0)
        with pytest.raises(CryptoError):
            PrivateKey(N)

    def test_private_key_roundtrip(self):
        sk, _ = generate_keypair(b"rt2")
        clone = PrivateKey.from_bytes(sk.to_bytes())
        assert clone.public_key == sk.public_key

    def test_fingerprint_is_short_hex(self):
        _, pk = generate_keypair(b"fp")
        assert len(pk.fingerprint()) == 16
        int(pk.fingerprint(), 16)


class TestSignatures:
    def test_sign_verify_roundtrip(self):
        sk, pk = generate_keypair(b"sv")
        sig = sk.sign(b"hello world")
        pk.verify(b"hello world", sig)  # no exception

    def test_deterministic_signing_rfc6979(self):
        sk, _ = generate_keypair(b"det")
        assert sk.sign(b"msg").to_bytes() == sk.sign(b"msg").to_bytes()

    def test_different_messages_different_signatures(self):
        sk, _ = generate_keypair(b"dm")
        assert sk.sign(b"a") != sk.sign(b"b")

    def test_tampered_message_fails(self):
        sk, pk = generate_keypair(b"tm")
        sig = sk.sign(b"original")
        with pytest.raises(InvalidSignature):
            pk.verify(b"tampered", sig)

    def test_wrong_key_fails(self):
        sk, _ = generate_keypair(b"k1")
        _, other_pk = generate_keypair(b"k2")
        sig = sk.sign(b"msg")
        with pytest.raises(InvalidSignature):
            other_pk.verify(b"msg", sig)

    def test_signature_is_low_s(self):
        sk, _ = generate_keypair(b"lows")
        for i in range(8):
            assert sk.sign(bytes([i])).s <= N // 2

    def test_signature_roundtrip_bytes(self):
        sk, pk = generate_keypair(b"rt3")
        sig = Signature.from_bytes(sk.sign(b"x").to_bytes())
        pk.verify(b"x", sig)

    def test_out_of_range_signature_rejected(self):
        _, pk = generate_keypair(b"oor")
        with pytest.raises(InvalidSignature):
            pk.verify(b"x", Signature(0, 1))
        with pytest.raises(InvalidSignature):
            pk.verify(b"x", Signature(1, N))

    def test_forged_signature_rejected(self):
        _, pk = generate_keypair(b"forge")
        with pytest.raises(InvalidSignature):
            pk.verify(b"x", Signature(12345, 67890))


# ---------------------------------------------------------------------------
# One-pass verify (Shamir's trick): known answers, and agreement with the
# two-multiplication verify it replaced.
# ---------------------------------------------------------------------------

def reference_verify(key: PublicKey, message: bytes,
                     signature: Signature) -> None:
    """The previous ``PublicKey.verify``, verbatim: two independent
    double-and-add multiplications and an affine comparison.  Kept here
    as the oracle for the one-pass verify."""
    if not (1 <= signature.r < N and 1 <= signature.s < N):
        raise InvalidSignature("signature components out of range")
    e = int.from_bytes(sha256(message), "big") % N
    w = _inv_mod(signature.s, N)
    u1 = (e * w) % N
    u2 = (signature.r * w) % N
    jac = _jacobian_add(
        _to_jacobian(_scalar_mult(u1, (GX, GY))) if u1 else _INFINITY,
        _to_jacobian(_scalar_mult(u2, (key.x, key.y))) if u2 else _INFINITY,
    )
    if jac[2] == 0:
        raise InvalidSignature("verification produced point at infinity")
    x, _ = _from_jacobian(jac)
    if x % N != signature.r:
        raise InvalidSignature("signature mismatch")


def _accepts(verify, key, message, signature) -> bool:
    try:
        verify(key, message, signature)
    except InvalidSignature:
        return False
    return True


def _agree(key, message, signature) -> bool:
    verdict = _accepts(PublicKey.verify, key, message, signature)
    assert verdict == _accepts(reference_verify, key, message, signature)
    return verdict


#: RFC 6979 appendix A.2.5 (P-256, SHA-256): message -> (k, r, s).
RFC6979_D = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
RFC6979_Q = (
    0x60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6,
    0x7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299)
RFC6979_VECTORS = {
    b"sample": (
        0xA6E3C57DD01ABE90086538398355DD4C3B17AA873382B0F24D6129493D8AAD60,
        0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
        0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8),
    b"test": (
        0xD16B6AE827F17175E040871A1C7EC3500192C4C92677336EC2537ACAEE0008E0,
        0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367,
        0x019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083),
}


class TestKnownAnswers:
    def test_public_key_derivation(self):
        key = PrivateKey(RFC6979_D).public_key
        assert (key.x, key.y) == RFC6979_Q

    @pytest.mark.parametrize("message", sorted(RFC6979_VECTORS))
    def test_sign(self, message):
        k, r, s = RFC6979_VECTORS[message]
        sk = PrivateKey(RFC6979_D)
        assert sk._rfc6979_k(sha256(message)) == k
        # Signatures are canonicalised to low-s; the RFC's are not.
        assert sk.sign(message) == Signature(r, min(s, N - s))

    @pytest.mark.parametrize("message", sorted(RFC6979_VECTORS))
    def test_verify(self, message):
        _, r, s = RFC6979_VECTORS[message]
        key = PublicKey(*RFC6979_Q)
        key.verify(message, Signature(r, s))
        key.verify(message, Signature(r, N - s))
        for bad in (Signature(r, s ^ 1), Signature(r ^ 1, s)):
            with pytest.raises(InvalidSignature):
                key.verify(message, bad)
        with pytest.raises(InvalidSignature):
            key.verify(message + b"!", Signature(r, s))


def _recover_key(point, e: int, r: int, s: int) -> PublicKey:
    """The public key under which ``(r, s)`` over digest ``e`` verifies
    with ``u1*G + u2*Q == point``: ``Q = r^-1 (s*point - e*G)``."""
    minus_eg = _scalar_mult(N - e % N, (GX, GY))
    total = _from_jacobian(_jacobian_add(
        _to_jacobian(_scalar_mult(s, point)), _to_jacobian(minus_eg)))
    return PublicKey(*_scalar_mult(_inv_mod(r, N), total))


class TestVerifyEdgeCases:
    def test_affine_x_at_or_above_group_order(self):
        """``x mod N == r`` with ``x >= N``: the projective comparison
        has to try ``(r + N) * Z^2`` as well."""
        x = N + 1
        while True:
            rhs = (x * x * x + A * x + B) % P
            y = pow(rhs, (P + 1) // 4, P)   # P = 3 mod 4
            if y * y % P == rhs:
                break
            x += 1
        assert N <= x < P
        r, s, message = x - N, 0x1234567, b"wraps past the group order"
        e = int.from_bytes(sha256(message), "big")
        key = _recover_key((x, y), e, r, s)
        assert _agree(key, message, Signature(r, s))
        assert not _agree(key, message, Signature(r + 1, s))
        assert not _agree(key, message + b"!", Signature(r, s))

    @pytest.mark.parametrize("d", [1, N - 1], ids=["Q=G", "Q=-G"])
    def test_corner_keys(self, d):
        """``G + Q`` is a doubling (``d = 1``) or the point at infinity
        (``d = N - 1``)."""
        sk = PrivateKey(d)
        for i in range(24):
            message = b"corner-%d" % i
            sig = sk.sign(message)
            assert _agree(sk.public_key, message, sig)
            assert _agree(sk.public_key, message, Signature(sig.r, N - sig.s))
            assert not _agree(sk.public_key, message + b"!", sig)

    def test_sum_at_infinity_is_rejected(self):
        """``u1*G + u2*Q`` cancels exactly: with ``Q = -G`` any
        signature with ``r == e`` gives ``u1 == u2``."""
        key = PrivateKey(N - 1).public_key
        message = b"cancel"
        e = int.from_bytes(sha256(message), "big") % N
        assert not _agree(key, message, Signature(e, 0x42))


class TestVerifyAgreement:
    """Hypothesis: the one-pass verify and the reference return the same
    verdict on valid, tampered and twinned signatures."""

    keys = st.one_of(
        st.sampled_from([1, 2, N - 2, N - 1]),
        st.integers(min_value=1, max_value=N - 1))

    @settings(max_examples=60, deadline=None)
    @given(d=keys, message=st.binary(max_size=64),
           tamper=st.sampled_from(["none", "r", "s", "message", "high-s",
                                   "other-key"]),
           delta=st.integers(min_value=1, max_value=N - 1))
    def test_same_verdict(self, d, message, tamper, delta):
        sk = PrivateKey(d)
        key, sig = sk.public_key, sk.sign(message)
        if tamper == "r":
            sig = Signature((sig.r + delta) % N or 1, sig.s)
        elif tamper == "s":
            sig = Signature(sig.r, (sig.s + delta) % N or 1)
        elif tamper == "message":
            message += b"\x00"
        elif tamper == "high-s":
            sig = Signature(sig.r, N - sig.s)
        elif tamper == "other-key":
            key = PrivateKey(delta).public_key
        verdict = _agree(key, message, sig)
        if tamper in ("none", "high-s"):
            assert verdict
        elif tamper == "message":
            assert not verdict

    @settings(max_examples=40, deadline=None)
    @given(d=keys, message=st.binary(max_size=32),
           r=st.integers(min_value=1, max_value=N - 1),
           s=st.integers(min_value=1, max_value=N - 1))
    def test_arbitrary_signatures(self, d, message, r, s):
        _agree(PrivateKey(d).public_key, message, Signature(r, s))

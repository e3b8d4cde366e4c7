"""ECDSA / hashing primitives."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.common import crypto
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
    _inv_mod,
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
# The oracle: the plain double-and-add arithmetic and the
# two-multiplication verify that src/ used before the comb tables, kept
# verbatim.  Everything table driven is compared against these.
# ---------------------------------------------------------------------------

_INFINITY = (0, 0, 0)  # Jacobian point at infinity


def _to_jacobian(point):
    return (point[0], point[1], 1)


def _from_jacobian(point):
    x, y, z = point
    if z == 0:
        raise CryptoError("point at infinity has no affine form")
    zinv = _inv_mod(z, P)
    zinv2 = (zinv * zinv) % P
    return ((x * zinv2) % P, (y * zinv2 % P) * zinv % P)


def _jacobian_double(pt):
    x, y, z = pt
    if y == 0 or z == 0:
        return _INFINITY
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    m = (3 * x * x + A * z ** 4) % P
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = (2 * y * z) % P
    return (nx, ny, nz)


def _jacobian_add(p1, p2):
    if p1[2] == 0:
        return p2
    if p2[2] == 0:
        return p1
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    z1z1 = (z1 * z1) % P
    z2z2 = (z2 * z2) % P
    u1 = (x1 * z2z2) % P
    u2 = (x2 * z1z1) % P
    s1 = (y1 * z2 * z2z2) % P
    s2 = (y2 * z1 * z1z1) % P
    if u1 == u2:
        if s1 != s2:
            return _INFINITY
        return _jacobian_double(p1)
    h = (u2 - u1) % P
    i = (2 * h) ** 2 % P
    j = (h * i) % P
    r = (2 * (s2 - s1)) % P
    v = (u1 * i) % P
    nx = (r * r - j - 2 * v) % P
    ny = (r * (v - nx) - 2 * s1 * j) % P
    nz = (((z1 + z2) ** 2 - z1z1 - z2z2) * h) % P
    return (nx, ny, nz)


def _scalar_mult(k, point):
    """Multiply an affine point by scalar ``k`` (double-and-add)."""
    if k % N == 0:
        raise CryptoError("scalar is zero modulo curve order")
    k %= N
    result = _INFINITY
    addend = _to_jacobian(point)
    while k:
        if k & 1:
            result = _jacobian_add(result, addend)
        addend = _jacobian_double(addend)
        k >>= 1
    return _from_jacobian(result)


def reference_verify(key: PublicKey, message: bytes,
                     signature: Signature) -> None:
    """``PublicKey.verify`` as it first was: two independent
    double-and-add multiplications and an affine comparison."""
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


# ---------------------------------------------------------------------------
# Comb tables: fixed-base G, cached per-key combs
# ---------------------------------------------------------------------------

#: Scalars whose comb columns are mostly zero, or all ones: one tooth,
#: one column, the top bit, the ends of the range.
EDGE_SCALARS = ([1, 2, 3, N - 1, N - 2, 2 ** 255, 2 ** 256 - 1]
                + [2 ** k for k in (31, 32, 63, 64, 127, 128, 224, 255)]
                + [2 ** k - 1 for k in (32, 64, 128, 255)]
                + [sum(2 ** (32 * i) for i in range(8)),        # column 0
                   sum(2 ** (32 * i + 31) for i in range(8))])  # column 31

scalars = st.one_of(
    st.sampled_from(EDGE_SCALARS),
    st.integers(min_value=1, max_value=N - 1),
    # A few set bits: most columns of every comb are empty.
    st.sets(st.integers(min_value=0, max_value=255), min_size=1,
            max_size=4).map(lambda bits: sum(2 ** b for b in bits)))


def _comb_times(k, comb):
    """``k * T`` through the comb of ``T``, affine."""
    jacobian = crypto._sum_columns(zip(crypto._comb_addends(k, comb)))
    return crypto._batch_affine([jacobian])[0]


class TestCombs:
    def test_g_comb_layout(self):
        comb = crypto._g_comb()
        assert comb is crypto._g_comb()
        assert len(comb) == 2 ** 8 and comb[0] is None
        assert comb[1] == (GX, GY)
        assert comb[2] == _scalar_mult(2 ** 32, (GX, GY))
        assert comb[0b10000001] == _scalar_mult(2 ** 224 + 1, (GX, GY))
        assert comb[255] == _scalar_mult(
            sum(2 ** (32 * i) for i in range(8)), (GX, GY))

    @pytest.mark.parametrize("k", EDGE_SCALARS)
    def test_g_times_edges(self, k):
        assert crypto._g_times(k % N) == _scalar_mult(k, (GX, GY))

    @settings(max_examples=60, deadline=None)
    @given(k=scalars)
    def test_g_times_equals_double_and_add(self, k):
        assert crypto._g_times(k % N) == _scalar_mult(k, (GX, GY))

    @pytest.mark.parametrize("teeth", [2, 4, 8])
    def test_key_combs_of_every_height(self, teeth):
        point = _scalar_mult(0xC0FFEE, (GX, GY))
        comb = crypto._build_comb(*point, teeth)
        assert len(comb) == 2 ** teeth and comb[1] == point
        assert comb[-1] == _scalar_mult(
            sum(2 ** (256 // teeth * i) for i in range(teeth)), point)
        for k in EDGE_SCALARS + [0xDEADBEEF * 2 ** 100 + 12345]:
            assert _comb_times(k, comb) == _scalar_mult(k, point), hex(k)

    @pytest.mark.parametrize("d", [1, N - 1], ids=["Q=G", "Q=-G"])
    def test_comb_of_plus_and_minus_g(self, d):
        point = _scalar_mult(d, (GX, GY))
        comb = crypto._build_comb(*point, crypto._KEY_TEETH)
        for k in (1, 5, N - 1, 2 ** 128):
            assert _comb_times(k, comb) == _scalar_mult(k * d, (GX, GY))

    def test_zero_scalar_is_infinity(self):
        zero = crypto._comb_addends(0, crypto._g_comb())
        assert zero == [None] * 32
        assert crypto._sum_columns(zip(zero))[2] == 0

    def test_batch_affine_matches_one_by_one(self):
        points = [(GX, GY, 1)]
        for _ in range(5):
            points.append(crypto._double_a3(*points[-1]))
        assert crypto._batch_affine(points) == \
            [_from_jacobian(point) for point in points]
        assert crypto._batch_affine([]) == []

    @settings(max_examples=25, deadline=None)
    @given(d=scalars.filter(lambda k: k < N), k=scalars)
    def test_public_key_and_nonce_point(self, d, k):
        """Key generation and the signing nonce point go through the
        comb of G."""
        assert PrivateKey(d).public_key == \
            PublicKey(*_scalar_mult(d, (GX, GY)))
        assert crypto._g_times(k % N)[0] == _scalar_mult(k, (GX, GY))[0]


class TestKeyCombCache:
    def test_verify_caches_one_comb_per_key(self, key_combs):
        sk = PrivateKey.generate(b"cache")
        sig = sk.sign(b"m")
        sk.public_key.verify(b"m", sig)
        comb = key_combs[(sk.public_key.x, sk.public_key.y)]
        PublicKey.from_bytes(sk.public_key.to_bytes()).verify(b"m", sig)
        assert key_combs[(sk.public_key.x, sk.public_key.y)] is comb
        assert crypto.key_tables_cached() == 1
        assert len(comb) == 2 ** crypto._KEY_TEETH

    def test_oldest_key_is_evicted_at_the_bound(self, key_combs):
        keys = [PrivateKey(d) for d in range(2, crypto.KEY_TABLES_MAX + 3)]
        signed = [(sk.public_key, sk.sign(b"m")) for sk in keys]
        for key, sig in signed[:-1]:
            key.verify(b"m", sig)
        assert crypto.key_tables_cached() == crypto.KEY_TABLES_MAX
        key, sig = signed[-1]
        key.verify(b"m", sig)                    # one past the bound
        assert crypto.key_tables_cached() == crypto.KEY_TABLES_MAX
        first, second = signed[0][0], signed[1][0]
        assert (first.x, first.y) not in key_combs
        assert (second.x, second.y) in key_combs
        # An evicted key still verifies; it is rebuilt and the next
        # oldest goes.
        first.verify(b"m", signed[0][1])
        assert (first.x, first.y) in key_combs
        assert (second.x, second.y) not in key_combs
        with pytest.raises(InvalidSignature):
            first.verify(b"other", signed[0][1])

    def test_two_threads_verify_the_same_fresh_key(self, key_combs,
                                                   monkeypatch):
        """Both miss, both build (outside the lock), both publish; each
        gets a right answer and one comb stays."""
        sk = PrivateKey.generate(b"fresh key, two threads")
        key, sig = sk.public_key, sk.sign(b"m")
        both_building = threading.Barrier(2, timeout=30)
        build = crypto._build_comb

        def build_together(px, py, teeth):
            both_building.wait()
            return build(px, py, teeth)

        monkeypatch.setattr(crypto, "_build_comb", build_together)
        verdicts = []

        def work(message):
            verdicts.append((message, _accepts(PublicKey.verify, key,
                                               message, sig)))

        threads = [threading.Thread(target=work, args=(message,))
                   for message in (b"m", b"tampered")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(verdicts) == [(b"m", True), (b"tampered", False)]
        assert list(key_combs) == [(key.x, key.y)]

    def test_many_threads_many_keys_stay_within_the_bound(self, key_combs):
        """More workers than cores, more keys than the cache holds: every
        verdict is right and the cache never exceeds its bound."""
        signed = []
        for d in range(2, crypto.KEY_TABLES_MAX + 10):
            sk = PrivateKey(d)
            signed.append((sk.public_key, sk.sign(b"m")))
        wrong, sizes = [], []

        def work(offset):
            for i in range(len(signed)):
                key, sig = signed[(i * 7 + offset) % len(signed)]
                if not _accepts(PublicKey.verify, key, b"m", sig) or \
                        _accepts(PublicKey.verify, key, b"x", sig):
                    wrong.append(key)
                sizes.append(crypto.key_tables_cached())

        threads = [threading.Thread(target=work, args=(offset,))
                   for offset in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        assert max(sizes) <= crypto.KEY_TABLES_MAX

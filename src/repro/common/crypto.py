"""Pure-Python cryptographic primitives.

The paper relies on digital signatures for (a) client transaction
authenticity and non-repudiation, (b) orderer signatures on blocks, and
(c) node identities (section 3.1).  This module provides:

* SHA-256 helpers with canonical encoding,
* ECDSA over the NIST P-256 curve with RFC 6979 deterministic nonces
  (deterministic signing matters here: re-signing the same transaction on
  recovery must yield the same bytes so hashes remain stable),
* key generation, serialization, and verification.

Implemented from scratch on top of :mod:`hashlib`/:mod:`hmac` only, since
the environment has no third-party crypto packages.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
from dataclasses import dataclass
from typing import Tuple, Union

from repro.errors import CryptoError, InvalidSignature

# ---------------------------------------------------------------------------
# NIST P-256 (secp256r1) domain parameters
# ---------------------------------------------------------------------------

P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
A = P - 3
B = 0x5AC635D8AA3A93E7B3EBBD55769886BC651D06B0CC53B0F63BCE3C3E27D2604B
GX = 0x6B17D1F2E12C4247F8BCE6E563A440F277037D812DEB33A0F4A13945D898C296
GY = 0x4FE342E2FE1A7F9B8EE7EB4A7C0F9E162BCE33576B315ECECBB6406837BF51F5
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

Bytes = Union[bytes, bytearray, memoryview]


def sha256(data: Bytes) -> bytes:
    """Return the SHA-256 digest of ``data``."""
    return hashlib.sha256(bytes(data)).digest()


def sha256_hex(data: Bytes) -> str:
    """Return the SHA-256 digest of ``data`` as a hex string."""
    return hashlib.sha256(bytes(data)).hexdigest()


def hash_chain(prev_hash: bytes, payload: Bytes) -> bytes:
    """Hash a block payload onto the previous block hash (section 3.1:
    ``hash(seqno, txs, metadata, prev_hash)``)."""
    return sha256(prev_hash + bytes(payload))


# ---------------------------------------------------------------------------
# Elliptic-curve arithmetic (Jacobian coordinates for speed)
# ---------------------------------------------------------------------------

_INFINITY = (0, 0, 0)  # Jacobian point at infinity


def _inv_mod(x: int, m: int) -> int:
    return pow(x, -1, m)


def _to_jacobian(point: Tuple[int, int]) -> Tuple[int, int, int]:
    return (point[0], point[1], 1)


def _from_jacobian(point: Tuple[int, int, int]) -> Tuple[int, int]:
    x, y, z = point
    if z == 0:
        raise CryptoError("point at infinity has no affine form")
    zinv = _inv_mod(z, P)
    zinv2 = (zinv * zinv) % P
    return ((x * zinv2) % P, (y * zinv2 % P) * zinv % P)


def _jacobian_double(pt: Tuple[int, int, int]) -> Tuple[int, int, int]:
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


def _jacobian_add(p1: Tuple[int, int, int],
                  p2: Tuple[int, int, int]) -> Tuple[int, int, int]:
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


def _scalar_mult(k: int, point: Tuple[int, int]) -> Tuple[int, int]:
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


def _double_a3(x: int, y: int, z: int) -> Tuple[int, int, int]:
    """Jacobian doubling specialised to ``a = -3``:
    ``3x^2 + a z^4 = 3(x - z^2)(x + z^2)``.  A zero ``z`` stays zero."""
    zz = z * z % P
    yy = y * y % P
    t = 4 * x * yy % P
    m = 3 * (x - zz) * (x + zz) % P
    nx = (m * m - 2 * t) % P
    return nx, (m * (t - nx) - 8 * yy * yy) % P, 2 * y * z % P


def _add_affine(x: int, y: int, z: int, ax: int, ay: int
                ) -> Tuple[int, int, int]:
    """Mixed addition: Jacobian ``(x, y, z)`` plus affine ``(ax, ay)``."""
    if z == 0:
        return ax, ay, 1
    zz = z * z % P
    h = (ax * zz - x) % P
    r = (ay * z * zz - y) % P
    if h == 0 and r == 0:
        return _double_a3(x, y, z)
    # h == 0 with r != 0 adds a point to its negative: z * h == 0 below
    # is the point at infinity.
    hh = h * h % P
    hhh = h * hh % P
    v = x * hh % P
    nx = (r * r - hhh - 2 * v) % P
    return nx, (r * (v - nx) - y * hhh) % P, z * h % P


def _is_on_curve(point: Tuple[int, int]) -> bool:
    x, y = point
    return (y * y - (x * x * x + A * x + B)) % P == 0


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PublicKey:
    """An ECDSA public key (affine curve point)."""

    x: int
    y: int

    def __post_init__(self):
        if not _is_on_curve((self.x, self.y)):
            raise CryptoError("public key point is not on curve P-256")

    def to_bytes(self) -> bytes:
        """Uncompressed SEC1 encoding (0x04 || X || Y)."""
        return b"\x04" + self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PublicKey":
        if len(data) != 65 or data[0] != 4:
            raise CryptoError("expected 65-byte uncompressed SEC1 point")
        return cls(int.from_bytes(data[1:33], "big"),
                   int.from_bytes(data[33:], "big"))

    def fingerprint(self) -> str:
        """Short stable identifier for logging and certificate tables."""
        return sha256_hex(self.to_bytes())[:16]

    def verify(self, message: Bytes, signature: "Signature") -> None:
        """Verify ``signature`` over ``message``; raise
        :class:`InvalidSignature` on failure.

        ``u1*G + u2*Q`` is one interleaved double-and-add over the
        per-call table ``{G, Q, G+Q}`` (Shamir's trick), and the result
        is compared projectively, so the only inversions are ``s`` mod N
        and the one that makes ``G+Q`` affine.  Stateless: nothing is
        cached between calls (docs/crypto.md)."""
        r, s = signature.r, signature.s
        if not (1 <= r < N and 1 <= s < N):
            raise InvalidSignature("signature components out of range")
        e = int.from_bytes(sha256(message), "big") % N
        w = _inv_mod(s, N)
        g, q = (GX, GY), (self.x, self.y)
        # G+Q is a doubling when Q == G and infinity when Q == -G.
        both = _jacobian_add(_to_jacobian(g), _to_jacobian(q))
        table = {"00": None, "10": g, "01": q,
                 "11": _from_jacobian(both) if both[2] else None}
        x = y = z = 0   # Jacobian accumulator, starting at infinity
        for bits in map(str.__add__, format(e * w % N, "0256b"),
                        format(r * w % N, "0256b")):
            if z:
                x, y, z = _double_a3(x, y, z)
            addend = table[bits]
            if addend is not None:
                x, y, z = _add_affine(x, y, z, *addend)
        if z == 0:
            raise InvalidSignature("verification produced point at infinity")
        # x/z^2 mod N == r without the inversion: the affine x is r or,
        # when that still fits below P, r + N.
        zz = z * z % P
        if (x - r * zz) % P and (r + N >= P or (x - (r + N) * zz) % P):
            raise InvalidSignature("signature mismatch")


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature (r, s), canonicalised to low-s form."""

    r: int
    s: int

    def to_bytes(self) -> bytes:
        return self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Signature":
        if len(data) != 64:
            raise CryptoError("expected 64-byte raw signature")
        return cls(int.from_bytes(data[:32], "big"),
                   int.from_bytes(data[32:], "big"))

    def hex(self) -> str:
        return self.to_bytes().hex()


class PrivateKey:
    """An ECDSA private key with RFC 6979 deterministic signing."""

    __slots__ = ("_d", "public_key")

    def __init__(self, d: int):
        if not 1 <= d < N:
            raise CryptoError("private scalar out of range")
        self._d = d
        self.public_key = PublicKey(*_scalar_mult(d, (GX, GY)))

    @classmethod
    def generate(cls, seed: bytes = None) -> "PrivateKey":
        """Generate a key.  A ``seed`` makes generation reproducible, which
        the test-suite and deterministic network bootstrap rely on."""
        if seed is not None:
            d = (int.from_bytes(sha256(seed), "big") % (N - 1)) + 1
        else:
            d = (secrets.randbelow(N - 1)) + 1
        return cls(d)

    def to_bytes(self) -> bytes:
        return self._d.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, data: bytes) -> "PrivateKey":
        return cls(int.from_bytes(data, "big"))

    # -- RFC 6979 deterministic nonce -------------------------------------
    def _rfc6979_k(self, digest: bytes) -> int:
        x = self._d.to_bytes(32, "big")
        v = b"\x01" * 32
        k = b"\x00" * 32
        k = hmac.new(k, v + b"\x00" + x + digest, hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()
        k = hmac.new(k, v + b"\x01" + x + digest, hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()
        while True:
            v = hmac.new(k, v, hashlib.sha256).digest()
            candidate = int.from_bytes(v, "big")
            if 1 <= candidate < N:
                return candidate
            k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
            v = hmac.new(k, v, hashlib.sha256).digest()

    def sign(self, message: Bytes) -> Signature:
        """Sign ``message`` (hashed with SHA-256) deterministically."""
        digest = sha256(message)
        e = int.from_bytes(digest, "big") % N
        while True:
            k = self._rfc6979_k(digest)
            x, _ = _scalar_mult(k, (GX, GY))
            r = x % N
            if r == 0:
                digest = sha256(digest)
                continue
            s = (_inv_mod(k, N) * (e + r * self._d)) % N
            if s == 0:
                digest = sha256(digest)
                continue
            if s > N // 2:  # low-s canonical form
                s = N - s
            return Signature(r, s)


def generate_keypair(seed: bytes = None) -> Tuple[PrivateKey, PublicKey]:
    """Convenience: generate a (private, public) pair."""
    sk = PrivateKey.generate(seed)
    return sk, sk.public_key

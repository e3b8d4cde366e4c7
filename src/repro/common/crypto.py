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
import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
# Elliptic-curve arithmetic
# ---------------------------------------------------------------------------
#
# A Jacobian point is ``(x, y, z)`` standing for the affine
# ``(x / z^2, y / z^3)``; ``z == 0`` is the point at infinity.  Every
# multiplication in this module is table driven (docs/crypto.md): the
# plain double-and-add it replaced lives on in tests/common/test_crypto.py
# as the oracle.

def _inv_mod(x: int, m: int) -> int:
    return pow(x, -1, m)


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


def _batch_affine(points: Sequence[Tuple[int, int, int]]
                  ) -> List[Tuple[int, int]]:
    """Affine forms of finite Jacobian points with one field inversion
    for all of them (Montgomery's trick)."""
    prefix, product = [], 1
    for _x, _y, z in points:
        prefix.append(product)
        product = product * z % P
    inverse = _inv_mod(product, P)
    out: List[Tuple[int, int]] = []
    for (x, y, z), before in zip(reversed(points), reversed(prefix)):
        zinv = inverse * before % P
        inverse = inverse * z % P
        zz = zinv * zinv % P
        out.append((x * zz % P, y * zz % P * zinv % P))
    out.reverse()
    return out


# -- Lim-Lee combs ----------------------------------------------------------
#
# A comb with ``h`` teeth for a point ``T`` cuts a 256-bit scalar into
# ``h`` blocks of ``256 / h`` bits and stores, for every non-empty set
# ``S`` of blocks, the affine point ``sum(2^(i * 256/h) * T for i in S)``
# at index ``sum(2^i for i in S)`` (index 0 is ``None``).  One column of
# the scalar — the same bit position of every block — then costs one
# doubling and at most one mixed addition, so ``k * T`` takes ``256 / h``
# of each instead of 256 doublings and ~128 additions.

Comb = Tuple[Optional[Tuple[int, int]], ...]

#: Teeth of the one comb for the generator ``G``: 255 points, ~45 KB,
#: ~5 ms to build on first use; 32 columns per multiplication.
_G_TEETH = 8
#: Teeth of a cached per-public-key comb: ``G``'s height, so ``verify``
#: walks the 32 columns of both combs together.  Not a knob: the
#: largest of {2, 4, 8} the end-to-end memory budget pays for, see
#: "Choosing the comb height" in docs/crypto.md.
_KEY_TEETH = _G_TEETH
#: Public keys with a cached comb (~48 KB each, ~1.5 MB at the bound);
#: the oldest goes first beyond it.
KEY_TABLES_MAX = 32


def _build_comb(px: int, py: int, teeth: int) -> Comb:
    spacing = 256 // teeth
    bases = [(px, py, 1)]
    for _ in range(teeth - 1):
        x, y, z = bases[-1]
        for _ in range(spacing):
            x, y, z = _double_a3(x, y, z)
        bases.append((x, y, z))
    # No subset sum below is a doubling or the point at infinity: the
    # scalars involved are distinct, non-zero and smaller than N.
    sums: List[Tuple[int, int, int]] = [(0, 0, 0)] * (1 << teeth)
    for i, (bx, by) in enumerate(_batch_affine(bases)):
        bit = 1 << i
        sums[bit] = (bx, by, 1)
        for low in range(1, bit):
            sums[bit | low] = _add_affine(*sums[low], bx, by)
    return (None, *_batch_affine(sums[1:]))


def _comb_addends(k: int, comb: Comb) -> List[Optional[Tuple[int, int]]]:
    """The comb entry to add in each column of ``0 <= k < 2^256``, most
    significant column first (``None`` where the column is all zero)."""
    spacing = 256 // (len(comb).bit_length() - 1)
    bits = format(k, "0256b")
    return [comb[int(bits[j::spacing], 2)] for j in range(spacing)]


def _sum_columns(columns: Iterable[Sequence[Optional[Tuple[int, int]]]]
                 ) -> Tuple[int, int, int]:
    """Horner evaluation over comb columns: double, then add every entry
    of the column.  Starts at, and may pass through, infinity."""
    x = y = z = 0
    for addends in columns:
        if z:
            x, y, z = _double_a3(x, y, z)
        for point in addends:
            if point is not None:
                x, y, z = _add_affine(x, y, z, *point)
    return x, y, z


_g_comb_cache: Optional[Comb] = None


def _g_comb() -> Comb:
    """The process-wide comb for ``G``, built on first use.  Racing
    builders compute the same table; the last assignment wins."""
    global _g_comb_cache
    comb = _g_comb_cache
    if comb is None:
        comb = _g_comb_cache = _build_comb(GX, GY, _G_TEETH)
    return comb


def _g_times(k: int) -> Tuple[int, int]:
    """The affine ``k * G`` for ``0 < k < N``."""
    return _batch_affine(
        [_sum_columns(zip(_comb_addends(k, _g_comb())))])[0]


_key_combs: Dict[Tuple[int, int], Comb] = {}
_key_combs_lock = threading.Lock()


def _key_comb(x: int, y: int) -> Comb:
    """The comb of public key ``(x, y)``, from the bounded cache.  A miss
    builds outside the lock and publishes with one dict assignment, so
    concurrent verifications of a fresh key at worst build it twice and
    readers never wait."""
    comb = _key_combs.get((x, y))
    if comb is None:
        comb = _build_comb(x, y, _KEY_TEETH)
        with _key_combs_lock:
            if (x, y) not in _key_combs and \
                    len(_key_combs) >= KEY_TABLES_MAX:
                del _key_combs[next(iter(_key_combs))]
            _key_combs[(x, y)] = comb
    return comb


def key_tables_cached() -> int:
    """Public keys with a cached comb (the ``crypto.key_tables`` gauge)."""
    return len(_key_combs)


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

        ``u1*G + u2*Q`` is one joint pass over the 32 columns of
        ``G``'s comb and this key's cached comb of the same height,
        and the result is compared projectively, so the only inversion
        is ``s`` mod N (docs/crypto.md)."""
        r, s = signature.r, signature.s
        if not (1 <= r < N and 1 <= s < N):
            raise InvalidSignature("signature components out of range")
        e = int.from_bytes(sha256(message), "big") % N
        w = _inv_mod(s, N)
        x, _y, z = _sum_columns(zip(
            _comb_addends(e * w % N, _g_comb()),
            _comb_addends(r * w % N, _key_comb(self.x, self.y))))
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
        self.public_key = PublicKey(*_g_times(d))

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
            r = _g_times(k)[0] % N
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

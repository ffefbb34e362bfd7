"""Signatures over protocol messages.

Π2 disseminates traffic information via consensus on *digitally signed*
summaries ("[x]_i indicates that x is digitally signed by i", Fig 5.1);
Πk+2 exchanges signed summaries between segment ends; Fatih floods signed
alerts.  We implement signature semantics with HMAC over a canonical
serialization: a value signed by router ``i`` verifies only under ``i``'s
key, and any mutation of the payload breaks verification.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
from dataclasses import dataclass, fields, is_dataclass
from typing import Any


class SignatureError(Exception):
    """A signature failed to verify."""


def canonical_bytes(obj: Any) -> bytes:
    """Deterministic serialization for signing.

    Supports the value shapes protocol messages are built from:
    primitives, bytes, tuples/lists, sets/frozensets (sorted), dicts
    (key-sorted) and dataclasses (field order).
    """
    if obj is None:
        return b"N"
    if isinstance(obj, bool):
        return b"B1" if obj else b"B0"
    if isinstance(obj, int):
        return b"I" + str(obj).encode()
    if isinstance(obj, float):
        return b"F" + repr(obj).encode()
    if isinstance(obj, str):
        raw = obj.encode()
        return b"S" + str(len(raw)).encode() + b":" + raw
    if isinstance(obj, bytes):
        return b"Y" + str(len(obj)).encode() + b":" + obj
    if isinstance(obj, (tuple, list)):
        if all(type(x) is int for x in obj):
            # Fast path, byte-identical to the recursion: b"I%d" % x is
            # canonical_bytes(x) for an exact int (not bool, not IntEnum).
            return b"L(" + b"".join([b"I%d" % x for x in obj]) + b")"
        inner = b"".join(canonical_bytes(x) for x in obj)
        return b"L(" + inner + b")"
    if isinstance(obj, (set, frozenset)):
        if all(type(x) is int for x in obj):
            # Sorted by encoding, as below, not numerically.
            return b"E(" + b"".join(sorted([b"I%d" % x for x in obj])) + b")"
        parts = sorted(canonical_bytes(x) for x in obj)
        return b"E(" + b"".join(parts) + b")"
    if isinstance(obj, dict):
        parts = []
        for key in sorted(obj, key=lambda k: canonical_bytes(k)):
            parts.append(canonical_bytes(key) + b"=" + canonical_bytes(obj[key]))
        return b"D(" + b"".join(parts) + b")"
    if isinstance(obj, enum.Enum):
        return b"M" + canonical_bytes(type(obj).__name__) + canonical_bytes(obj.name)
    if is_dataclass(obj) and not isinstance(obj, type):
        parts = [canonical_bytes(type(obj).__name__)]
        for f in fields(obj):
            parts.append(canonical_bytes(getattr(obj, f.name)))
        return b"C(" + b"".join(parts) + b")"
    raise TypeError(f"cannot canonicalize {type(obj)!r} for signing")


def _mac(key: bytes, encoded: bytes) -> bytes:
    return hmac.new(key, encoded, hashlib.sha256).digest()


@dataclass(frozen=True)
class Signed:
    """An immutable signed envelope: ``[payload]_signer``.

    The MAC covers ``canonical_bytes((signer, payload))``.  An envelope
    whose payload is hashable (frozen dataclasses, tuples, frozensets)
    keeps that encoding in a non-field attribute, so ``==``, ``repr`` and
    its own canonical form are unaffected and relay copies are not
    re-encoded on every ``verify``.  A mutable payload (a dict, a list) is
    re-encoded on every ``verify``, so mutating it after signing still
    breaks verification.  Every ``verify`` recomputes the HMAC.
    """

    payload: Any
    signer: str
    mac: bytes

    @classmethod
    def sign(cls, payload: Any, signer: str, signing_key: bytes) -> "Signed":
        encoded = canonical_bytes((signer, payload))
        signed = cls(payload=payload, signer=signer,
                     mac=_mac(signing_key, encoded))
        signed._keep(encoded)
        return signed

    def _keep(self, encoded: bytes) -> None:
        try:
            hash(self.payload)
        except TypeError:
            return
        object.__setattr__(self, "_encoded", encoded)

    def _signed_bytes(self) -> bytes:
        encoded = self.__dict__.get("_encoded")
        if encoded is None:
            encoded = canonical_bytes((self.signer, self.payload))
            self._keep(encoded)
        return encoded

    def verify(self, signing_key: bytes) -> bool:
        expected = _mac(signing_key, self._signed_bytes())
        return hmac.compare_digest(expected, self.mac)

    def verify_or_raise(self, signing_key: bytes) -> Any:
        if not self.verify(signing_key):
            raise SignatureError(f"bad signature claimed by {self.signer!r}")
        return self.payload

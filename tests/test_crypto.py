"""Unit tests for fingerprints, keys, signatures, hash chains."""

import enum

import pytest

from repro.crypto.fingerprint import FingerprintSampler, fingerprint, fingerprint_bytes
from repro.crypto.hashchain import HashChain
from repro.crypto.keys import KeyInfrastructure
from repro.crypto.signatures import Signed, SignatureError, canonical_bytes
from repro.net.packet import Packet


class TestFingerprint:
    def test_stable_across_hops(self):
        """§7.4.2: fingerprints must ignore TTL and checksum."""
        p = Packet(src="a", dst="b", payload=b"data")
        before = fingerprint(p)
        p.hop("r1")
        p.hop("r2")
        assert fingerprint(p) == before

    def test_sensitive_to_payload(self):
        p = Packet(src="a", dst="b", payload=b"data")
        evil = p.clone_modified(b"tampered")
        assert fingerprint(p) != fingerprint(evil)

    def test_key_separates_domains(self):
        p = Packet(src="a", dst="b")
        assert fingerprint(p, b"k1") != fingerprint(p, b"k2")

    def test_64_bit_output(self):
        p = Packet(src="a", dst="b")
        assert len(fingerprint_bytes(p)) == 8
        assert 0 <= fingerprint(p) < (1 << 64)

    def test_distinct_packets_distinct_fingerprints(self):
        fps = {fingerprint(Packet(src="a", dst="b", seq=i))
               for i in range(1000)}
        assert len(fps) == 1000


class TestSampler:
    def test_rate_one_samples_everything(self):
        sampler = FingerprintSampler(rate=1.0)
        assert all(sampler.sampled(Packet(src="a", dst="b", seq=i))
                   for i in range(50))

    def test_rate_controls_fraction(self):
        sampler = FingerprintSampler(rate=0.25, key=b"s")
        packets = [Packet(src="a", dst="b", seq=i) for i in range(4000)]
        frac = sum(sampler.sampled(p) for p in packets) / len(packets)
        assert frac == pytest.approx(0.25, abs=0.03)

    def test_same_key_same_decisions(self):
        a = FingerprintSampler(rate=0.5, key=b"shared")
        b = FingerprintSampler(rate=0.5, key=b"shared")
        packets = [Packet(src="a", dst="b", seq=i) for i in range(100)]
        assert [a.sampled(p) for p in packets] == \
            [b.sampled(p) for p in packets]

    def test_secret_key_changes_selection(self):
        """An intermediary guessing the wrong key samples a different set."""
        a = FingerprintSampler(rate=0.5, key=b"secret")
        b = FingerprintSampler(rate=0.5, key=b"guess")
        packets = [Packet(src="a", dst="b", seq=i) for i in range(200)]
        assert [a.sampled(p) for p in packets] != \
            [b.sampled(p) for p in packets]

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            FingerprintSampler(rate=0.0)
        with pytest.raises(ValueError):
            FingerprintSampler(rate=1.5)


class TestKeys:
    def test_pair_key_symmetric(self):
        keys = KeyInfrastructure()
        assert keys.pair_key("a", "b") == keys.pair_key("b", "a")

    def test_pair_keys_distinct(self):
        keys = KeyInfrastructure()
        assert keys.pair_key("a", "b") != keys.pair_key("a", "c")

    def test_signing_keys_distinct(self):
        keys = KeyInfrastructure()
        assert keys.signing_key("a") != keys.signing_key("b")

    def test_master_secret_separates_infrastructures(self):
        a = KeyInfrastructure(b"net-a")
        b = KeyInfrastructure(b"net-b")
        assert a.signing_key("r") != b.signing_key("r")

    def test_group_key_order_free(self):
        keys = KeyInfrastructure()
        assert keys.group_key(("a", "b", "c")) == keys.group_key(("c", "a", "b"))


class TestCanonicalBytes:
    def test_primitives(self):
        for value in (None, True, False, 0, -3, 1.5, "s", b"b"):
            assert isinstance(canonical_bytes(value), bytes)

    def test_dict_key_order_ignored(self):
        assert canonical_bytes({"a": 1, "b": 2}) == \
            canonical_bytes({"b": 2, "a": 1})

    def test_set_order_ignored(self):
        assert canonical_bytes({3, 1, 2}) == canonical_bytes({2, 3, 1})

    def test_type_distinctions(self):
        assert canonical_bytes(1) != canonical_bytes("1")
        assert canonical_bytes([1, 2]) != canonical_bytes([12])
        assert canonical_bytes(["ab"]) != canonical_bytes(["a", "b"])

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    def test_dataclasses_supported(self):
        from repro.core.summaries import SummaryPolicy, TrafficSummary
        summary = TrafficSummary(
            router="r", segment=("a", "b"), round_index=0,
            direction="sent", policy=SummaryPolicy.FLOW,
            count=3, byte_count=3000,
        )
        assert isinstance(canonical_bytes(summary), bytes)


class TestSigned:
    def test_sign_and_verify(self):
        keys = KeyInfrastructure()
        signed = Signed.sign({"count": 5}, "r1", keys.signing_key("r1"))
        assert signed.verify(keys.signing_key("r1"))
        assert signed.verify_or_raise(keys.signing_key("r1")) == {"count": 5}

    def test_tampered_payload_fails(self):
        keys = KeyInfrastructure()
        signed = Signed.sign({"count": 5}, "r1", keys.signing_key("r1"))
        forged = Signed(payload={"count": 9}, signer="r1", mac=signed.mac)
        assert not forged.verify(keys.signing_key("r1"))
        with pytest.raises(SignatureError):
            forged.verify_or_raise(keys.signing_key("r1"))

    def test_wrong_signer_fails(self):
        keys = KeyInfrastructure()
        signed = Signed.sign("x", "r1", keys.signing_key("r1"))
        stolen = Signed(payload="x", signer="r2", mac=signed.mac)
        assert not stolen.verify(keys.signing_key("r2"))

    def test_cannot_sign_without_key(self):
        """Structural security: forging needs the victim's key object."""
        keys = KeyInfrastructure()
        attacker_keys = KeyInfrastructure(b"attacker-guess")
        forged = Signed.sign("lie", "r1", attacker_keys.signing_key("r1"))
        assert not forged.verify(keys.signing_key("r1"))


class TestHashChain:
    def test_release_verifies_against_anchor(self):
        chain = HashChain(b"seed", length=10)
        anchor = chain.anchor
        value = chain.release()
        assert HashChain.verify(value, anchor, max_steps=1)

    def test_later_releases_need_more_steps(self):
        chain = HashChain(b"seed", length=10)
        anchor = chain.anchor
        chain.release()
        second = chain.release()
        assert not HashChain.verify(second, anchor, max_steps=1)
        assert HashChain.verify(second, anchor, max_steps=2)

    def test_wrong_value_rejected(self):
        chain = HashChain(b"seed", length=5)
        assert not HashChain.verify(b"junk", chain.anchor, max_steps=5)

    def test_exhaustion(self):
        chain = HashChain(b"seed", length=2)
        chain.release()
        chain.release()
        with pytest.raises(RuntimeError):
            chain.release()

    def test_remaining(self):
        chain = HashChain(b"seed", length=3)
        assert chain.remaining == 3
        chain.release()
        assert chain.remaining == 2

    def test_length_validated(self):
        with pytest.raises(ValueError):
            HashChain(b"seed", length=0)


class TestCanonicalIntFastPath:
    """Exact-int collections take a fast path that must match the
    generic per-element recursion byte for byte."""

    CASES = [
        [],
        [0],
        [-3, 5, -(2 ** 70)],
        [9, 10, -1, 100],  # byte order differs from numeric order
        [2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1, 2 ** 65],
        [fingerprint(Packet(src="a", dst="b", seq=i)) for i in range(50)],
    ]

    @staticmethod
    def generic_list(values) -> bytes:
        return b"L(" + b"".join(canonical_bytes(x) for x in values) + b")"

    @staticmethod
    def generic_set(values) -> bytes:
        return b"E(" + b"".join(sorted(canonical_bytes(x)
                                       for x in values)) + b")"

    @pytest.mark.parametrize("values", CASES)
    def test_sequences_match_generic(self, values):
        assert canonical_bytes(tuple(values)) == self.generic_list(values)
        assert canonical_bytes(list(values)) == self.generic_list(values)

    @pytest.mark.parametrize("values", CASES)
    def test_sets_match_generic(self, values):
        assert canonical_bytes(frozenset(values)) == self.generic_set(values)
        assert canonical_bytes(set(values)) == self.generic_set(values)

    @staticmethod
    def element_calls(value, monkeypatch) -> int:
        """How many times canonical_bytes recursed below ``value``."""
        from repro.crypto import signatures

        calls = []
        real = signatures.canonical_bytes

        def counting(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(signatures, "canonical_bytes", counting)
        real(value)
        monkeypatch.undo()
        return len(calls)

    def test_exact_ints_take_fast_path(self, monkeypatch):
        assert self.element_calls((1, 2, 3), monkeypatch) == 0
        assert self.element_calls(frozenset({1, 2}), monkeypatch) == 0

    def test_bools_keep_generic_path(self, monkeypatch):
        assert canonical_bytes((True, 1, False)) == b"L(B1I1B0)"
        assert canonical_bytes(frozenset({True, 2})) == b"E(B1I2)"
        assert self.element_calls((True, 1), monkeypatch) == 2

    def test_int_enums_keep_generic_path(self, monkeypatch):
        class Level(enum.IntEnum):
            LOW = 1

        assert canonical_bytes((Level.LOW, 2)) == b"L(I1I2)"
        assert canonical_bytes({Level.LOW, 2}) == b"E(I1I2)"
        assert self.element_calls((Level.LOW, 2), monkeypatch) == 2
        assert self.element_calls({Level.LOW}, monkeypatch) == 1

    def test_mixed_collections_keep_generic_path(self, monkeypatch):
        assert canonical_bytes((1, "a", None)) == b"L(I1S1:aN)"
        assert canonical_bytes(frozenset({1, "a"})) == b"E(I1S1:a)"
        assert canonical_bytes(((1, 2), 3)) == b"L(L(I1I2)I3)"
        assert self.element_calls((1, "a"), monkeypatch) == 2


class TestSignedEncodingCache:
    def test_envelope_equality_repr_and_bytes_unchanged(self):
        keys = KeyInfrastructure()
        signed = Signed.sign(("x", 1), "r1", keys.signing_key("r1"))
        rebuilt = Signed(payload=("x", 1), signer="r1", mac=signed.mac)
        assert signed.verify(keys.signing_key("r1"))
        assert rebuilt == signed
        assert repr(rebuilt) == repr(signed)
        assert canonical_bytes(rebuilt) == canonical_bytes(signed)

    def test_constructor_built_envelope_verifies(self):
        keys = KeyInfrastructure()
        signed = Signed.sign(frozenset({3, 1}), "r1", keys.signing_key("r1"))
        copy = Signed(payload=frozenset({1, 3}), signer="r1", mac=signed.mac)
        assert copy.verify(keys.signing_key("r1"))
        assert copy.verify(keys.signing_key("r1"))  # cached copy reused

    def test_forgery_reusing_cached_mac_fails(self):
        keys = KeyInfrastructure()
        signed = Signed.sign(("count", 5), "r1", keys.signing_key("r1"))
        assert signed.verify(keys.signing_key("r1"))
        forged = Signed(payload=("count", 9), signer="r1", mac=signed.mac)
        assert not forged.verify(keys.signing_key("r1"))
        stolen = Signed(payload=("count", 5), signer="r2", mac=signed.mac)
        assert not stolen.verify(keys.signing_key("r2"))

    def test_cached_envelope_still_checks_the_key(self):
        keys = KeyInfrastructure()
        signed = Signed.sign(("count", 5), "r1", keys.signing_key("r1"))
        assert signed.verify(keys.signing_key("r1"))
        assert not signed.verify(keys.signing_key("r2"))

    def test_mutated_dict_payload_fails(self):
        keys = KeyInfrastructure()
        signed = Signed.sign({"count": 5}, "r1", keys.signing_key("r1"))
        assert signed.verify(keys.signing_key("r1"))
        signed.payload["count"] = 9
        assert not signed.verify(keys.signing_key("r1"))

    def test_mutated_list_payload_fails(self):
        keys = KeyInfrastructure()
        signed = Signed.sign([1, 2], "r1", keys.signing_key("r1"))
        assert signed.verify(keys.signing_key("r1"))
        signed.payload.append(3)
        assert not signed.verify(keys.signing_key("r1"))

"""Unit tests for sync, robust flooding and signed consensus."""

from unittest import mock

import pytest

from repro.crypto.keys import KeyInfrastructure
from repro.dist.broadcast import robust_flood
from repro.dist.consensus import (
    ChainedValue,
    Equivocator,
    FaultyBehavior,
    Silent,
    SignedConsensus,
)
from repro.dist.sync import ClockModel, RoundSchedule
from repro.crypto.signatures import Signed
from repro.net.adversary import ControlSuppressionAttack
from repro.net.router import Network
from repro.net.topology import chain, diamond


class TestClockModel:
    def test_offsets_bounded(self):
        clock = ClockModel(epsilon=0.005, seed=3)
        for name in ("a", "b", "c", "router-17"):
            assert abs(clock.offset(name)) <= 0.005

    def test_offsets_deterministic(self):
        a = ClockModel(epsilon=0.01, seed=1)
        b = ClockModel(epsilon=0.01, seed=1)
        assert a.offset("r") == b.offset("r")

    def test_zero_epsilon(self):
        clock = ClockModel(epsilon=0.0)
        assert clock.offset("anything") == 0.0

    def test_roundtrip(self):
        clock = ClockModel(epsilon=0.01, seed=2)
        local = clock.local_time("r", 100.0)
        assert clock.true_time("r", local) == pytest.approx(100.0)

    def test_max_skew(self):
        assert ClockModel(epsilon=0.003).max_skew() == pytest.approx(0.006)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            ClockModel(epsilon=-1.0)


class TestRoundSchedule:
    def test_round_of(self):
        sched = RoundSchedule(tau=5.0)
        assert sched.round_of(0.0) == 0
        assert sched.round_of(4.999) == 0
        assert sched.round_of(5.0) == 1

    def test_interval(self):
        sched = RoundSchedule(tau=2.0, start=1.0)
        assert sched.interval(3) == (7.0, 9.0)
        assert sched.round_end(3) == 9.0

    def test_contains(self):
        sched = RoundSchedule(tau=2.0)
        assert sched.contains(1, 2.5)
        assert not sched.contains(1, 4.0)

    def test_tau_validated(self):
        with pytest.raises(ValueError):
            RoundSchedule(tau=0.0)


class TestRobustFlood:
    def test_reaches_all_routers(self):
        net = Network(chain(5))
        result = robust_flood(net, "r1", "hello")
        net.run(2.0)
        assert all(result.reached(r) for r in net.topology.routers)

    def test_survives_suppression_given_path_diversity(self):
        net = Network(diamond())
        # 'a' suppresses relays, but s-b-t keeps everyone connected.
        net.routers["a"].compromise = ControlSuppressionAttack()
        result = robust_flood(net, "s", "msg")
        net.run(2.0)
        assert result.reached("t")
        assert result.reached("b")

    def test_suppression_on_cut_vertex_partitions(self):
        net = Network(chain(3))
        net.routers["r2"].compromise = ControlSuppressionAttack()
        result = robust_flood(net, "r1", "msg")
        net.run(2.0)
        assert result.reached("r2")  # receives, refuses to relay
        assert not result.reached("r3")

    def test_verify_rejects_altered_copies(self):
        keys = KeyInfrastructure()
        signed = Signed.sign("payload", "r1", keys.signing_key("r1"))
        net = Network(diamond())

        class Corruptor(ControlSuppressionAttack):
            def on_control(self, router, src, dst, message):
                return Signed(payload="evil", signer="r1", mac=message.mac)

        net.routers["a"].compromise = Corruptor()
        result = robust_flood(
            net, "s", signed,
            verify=lambda m: isinstance(m, Signed)
            and m.verify(keys.signing_key(m.signer)),
        )
        net.run(2.0)
        assert result.reached("t")
        assert result.delivered["t"].payload == "payload"

    def test_on_deliver_callback(self):
        net = Network(chain(3))
        seen = []
        robust_flood(net, "r1", 42,
                     on_deliver=lambda at, msg, t: seen.append((at, msg)))
        net.run(1.0)
        assert ("r3", 42) in seen


class TestSignedConsensus:
    def members(self):
        return ["a", "b", "c", "d"]

    def test_all_honest_agree_on_inputs(self):
        keys = KeyInfrastructure()
        cons = SignedConsensus(self.members(), keys, max_faults=1)
        results = cons.run({"a": 1, "b": 2, "c": 3, "d": 4})
        vectors = {r.agreed_vector() for r in results.values()}
        assert len(vectors) == 1
        assert results["a"].values == {"a": 1, "b": 2, "c": 3, "d": 4}

    def test_silent_member_decided_bottom(self):
        keys = KeyInfrastructure()
        cons = SignedConsensus(self.members(), keys, max_faults=1)
        results = cons.run({"a": 1, "b": 2, "c": 3}, faulty={"d": Silent()})
        for r in results.values():
            assert r.values == {"a": 1, "b": 2, "c": 3, "d": None}
            assert r.silent == {"d"} and not r.equivocators

    def test_equivocator_detected_and_agreed_bottom(self):
        keys = KeyInfrastructure()
        cons = SignedConsensus(self.members(), keys, max_faults=1)
        results = cons.run({"a": 1, "b": 2, "c": 3},
                           faulty={"d": Equivocator("x", "y")})
        vectors = {r.agreed_vector() for r in results.values()}
        assert len(vectors) == 1
        for r in results.values():
            assert r.values == {"a": 1, "b": 2, "c": 3, "d": None}
            assert r.equivocators == {"d"} and not r.silent

    def test_two_faults_with_enough_rounds(self):
        keys = KeyInfrastructure()
        members = ["a", "b", "c", "d", "e"]
        cons = SignedConsensus(members, keys, max_faults=2)
        results = cons.run({"a": 1, "b": 2, "c": 3},
                           faulty={"d": Equivocator(7, 8), "e": Silent()})
        vectors = {r.agreed_vector() for r in results.values()}
        assert len(vectors) == 1

    def test_duplicate_members_rejected(self):
        with pytest.raises(ValueError):
            SignedConsensus(["a", "a"], KeyInfrastructure())

    def test_chain_forgery_rejected(self):
        keys = KeyInfrastructure()
        honest = Signed.sign("v", "a", keys.signing_key("a"))
        cv = ChainedValue(honest)
        # A chain "extended" with a wrong key fails validation.
        bad_link = Signed.sign(("a", honest.mac), "b",
                               KeyInfrastructure(b"other").signing_key("b"))
        forged = ChainedValue(honest, (bad_link,))
        assert not forged.valid(keys, round_index=1)

    def test_chain_extension_valid(self):
        keys = KeyInfrastructure()
        honest = Signed.sign("v", "a", keys.signing_key("a"))
        cv = ChainedValue(honest).extend("b", keys)
        assert cv.valid(keys, round_index=1)
        assert cv.signers() == ("a", "b")

    def test_duplicate_signer_in_chain_invalid(self):
        keys = KeyInfrastructure()
        honest = Signed.sign("v", "a", keys.signing_key("a"))
        cv = ChainedValue(honest).extend("b", keys).extend("b", keys)
        assert not cv.valid(keys, round_index=2)


class ForgedLinks(FaultyBehavior):
    """Relays every value it hears over a link signed with the wrong key,
    and injects a value claiming to come from ``victim``."""

    def __init__(self, victim: str) -> None:
        self.victim = victim
        self.wrong = KeyInfrastructure(b"attacker-guess")

    def initial_values(self, member, receivers, keys):
        signed = Signed.sign("mine", member, keys.signing_key(member))
        return {r: [ChainedValue(signed)] for r in receivers}

    def relay(self, member, receivers, new_values, keys):
        forged = Signed.sign(99, self.victim,
                             self.wrong.signing_key(self.victim))
        out = [ChainedValue(forged).extend(member, keys)]
        for cv in new_values:
            link = Signed.sign((cv.original.signer, cv.original.mac),
                               member, self.wrong.signing_key(member))
            out.append(ChainedValue(cv.original, cv.chain + (link,)))
        return {r: list(out) for r in receivers}


class TestConsensusVerifiesOnlyAcceptableValues:
    def count_verifies(self, members, inputs, faulty=None, max_faults=None):
        keys = KeyInfrastructure()
        cons = SignedConsensus(members, keys, max_faults=max_faults)
        with mock.patch.object(Signed, "verify", autospec=True,
                               side_effect=Signed.verify) as verify:
            results = cons.run(inputs, faulty=faulty)
        return results, verify.call_count

    def test_three_honest_members_verify_each_original_once(self):
        # Round 0: each member checks the two originals it receives.
        # Round 1: every relay carries a value the member already holds
        # or signed itself, so no signature is checked.
        results, verifies = self.count_verifies(
            ["a", "b", "c"], {"a": 1, "b": 2, "c": 3})
        assert verifies == 6
        for result in results.values():
            assert result.values == {"a": 1, "b": 2, "c": 3}
            assert not result.silent and not result.equivocators

    def test_four_honest_members(self):
        results, verifies = self.count_verifies(
            ["a", "b", "c", "d"], {"a": 1, "b": 2, "c": 3, "d": 4},
            max_faults=1)
        assert verifies == 12
        assert {r.agreed_vector() for r in results.values()} == {
            (("a", 1), ("b", 2), ("c", 3), ("d", 4))}

    def test_forged_link_outcome(self):
        # The forged value for "a" reaches the signature check (its MAC is
        # new to every member) and fails it; forged relays of held values
        # are dropped before it.
        results, _ = self.count_verifies(
            ["a", "b", "c", "d"], {"a": 1, "b": 2, "c": 3},
            faulty={"d": ForgedLinks("a")}, max_faults=2)
        for result in results.values():
            assert result.values == {"a": 1, "b": 2, "c": 3, "d": "mine"}
            assert not result.silent and not result.equivocators

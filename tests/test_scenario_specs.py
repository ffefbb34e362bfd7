"""The typed scenario-spec API and its sweep integration.

Covers the four spec layers (topology / adversary / placement /
traffic), serialization byte-stability, placement determinism, the
one-release deprecation shims over the old positional builders, dotted
``--grid`` parameter folding/validation, and an end-to-end
``attack_matrix`` sweep whose aggregate must be bit-identical across
runs with the same root seed.
"""

import hashlib
import json
import warnings

import pytest

from repro.__main__ import main
from repro.eval import (
    AdversarySpec,
    BEHAVIORS,
    PLACEMENT_STRATEGIES,
    PlacementSpec,
    ScenarioSpec,
    TopologySpec,
    TrafficSpec,
    build_scenario,
    topology_names,
)
from repro.eval.registry import ParamError, get as get_experiment
from repro.eval.scenarios import _SHIM_WARNED
from repro.net import abilene, chain, ring
from repro.sweep.grid import fold_dotted_params


def canonical(spec) -> str:
    return json.dumps(spec.to_dict(), sort_keys=True)


class TestSpecRoundTrip:
    SPECS = [
        ScenarioSpec(),
        ScenarioSpec(topology={"name": "ebone_like"},
                     adversary={"behavior": "modify", "rate": 0.5},
                     placement={"strategy": "max-betweenness"},
                     traffic={"kind": "cbr", "flows": 3},
                     tau=2.0, rounds=4, seed=7),
        ScenarioSpec(topology=TopologySpec("grid", options={"rows": 2}),
                     adversary=AdversarySpec("fabricate", targeting="all",
                                             options={"rate_pps": 50.0}),
                     placement=PlacementSpec("fixed", router="r1x2"),
                     traffic=TrafficSpec("tcp", flows=1)),
    ]

    @pytest.mark.parametrize("spec", SPECS)
    def test_roundtrip_is_byte_stable(self, spec):
        once = canonical(spec)
        again = canonical(ScenarioSpec.from_dict(json.loads(once)))
        assert once == again

    def test_sub_spec_roundtrips(self):
        for spec in (TopologySpec("ring", options={"n": 5}),
                     AdversarySpec("delay", rate=0.2),
                     PlacementSpec("articulation-point"),
                     TrafficSpec("cbr", rate_bps=1e6)):
            rebuilt = type(spec).from_dict(spec.to_dict())
            assert rebuilt == spec
            assert (json.dumps(rebuilt.to_dict(), sort_keys=True)
                    == json.dumps(spec.to_dict(), sort_keys=True))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="strateggy"):
            PlacementSpec.from_dict({"strateggy": "fixed"})
        with pytest.raises(ValueError, match="behaviour"):
            AdversarySpec.from_dict({"behaviour": "drop"})

    def test_validation_rejects_unknown_enums(self):
        with pytest.raises(ValueError):
            AdversarySpec(behavior="nuke")
        with pytest.raises(ValueError):
            PlacementSpec(strategy="random")
        with pytest.raises(ValueError):
            TrafficSpec(kind="udp")
        with pytest.raises(ValueError, match="abilene"):
            TopologySpec(name="nonesuch").build()

    def test_options_are_canonical(self):
        a = TopologySpec("grid", options={"rows": 2, "cols": 4})
        b = TopologySpec("grid", options={"cols": 4, "rows": 2})
        assert a == b and canonical(a) == canonical(b)
        with pytest.raises(ValueError, match="duplicate"):
            TopologySpec("grid", options=[("n", 1), ("n", 2)])

    def test_catalogue_lists_registered_topologies(self):
        names = topology_names()
        for expected in ("abilene", "sprintlink_like", "ebone_like",
                         "line", "ring", "grid", "simple"):
            assert expected in names


class TestAdversaryRate:
    """``rate`` is checked against its behavior when the spec is built."""

    @pytest.mark.parametrize("behavior", ["drop", "modify", "misroute"])
    def test_fraction_behaviors_need_unit_interval(self, behavior):
        for rate in (0.0, 0.5, 1.0):
            assert AdversarySpec(behavior, rate=rate).rate == rate
        for rate in (1.0001, 2.0, -0.1, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="rate"):
                AdversarySpec(behavior, rate=rate)
            with pytest.raises(ValueError, match="rate"):
                AdversarySpec.from_dict({"behavior": behavior, "rate": rate})

    def test_fabricate_needs_finite_positive_rate(self):
        for rate in (0.01, 1.0, 3.0):
            assert AdversarySpec("fabricate", rate=rate).rate == rate
        for rate in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="rate"):
                AdversarySpec("fabricate", rate=rate)
            with pytest.raises(ValueError, match="rate"):
                AdversarySpec.from_dict({"behavior": "fabricate",
                                         "rate": rate})

    @pytest.mark.parametrize("behavior", ["none", "reorder", "delay"])
    def test_rate_free_behaviors_reject_only_non_finite(self, behavior):
        assert AdversarySpec(behavior, rate=0.0).rate == 0.0
        assert AdversarySpec(behavior, rate=5.0).rate == 5.0
        for rate in (float("inf"), -1.0):
            with pytest.raises(ValueError, match="rate"):
                AdversarySpec.from_dict({"behavior": behavior, "rate": rate})

    def test_default_behavior_is_a_fraction(self):
        with pytest.raises(ValueError, match="'drop'.*got 2.0"):
            AdversarySpec.from_dict({"rate": 2})

    def test_experiment_params_checked_before_running(self):
        spec = get_experiment("attack_matrix")
        with pytest.raises(ParamError, match="adversary.*got 2.0"):
            spec.run(**{"topology": "line", "adversary.rate": 2.0})
        resolved = spec.resolve_params(
            {"adversary.behavior": "delay", "adversary.rate": 2.0})
        assert resolved["adversary"] == {"behavior": "delay", "rate": 2.0}

    @pytest.mark.parametrize("rates", ["2", "0.5,2", "inf"])
    def test_grid_rate_rejected_at_parse_time(self, tmp_path, capsys,
                                              rates):
        code = main(["sweep", "attack_matrix", "--seeds", "1", "--quiet",
                     "--no-cache", "--param", "topology=line",
                     "--grid", f"adversary.rate={rates}",
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "adversary rate" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPlacement:
    def test_fixed_requires_member_router(self):
        spec = PlacementSpec("fixed", router="r2")
        assert spec.resolve(chain(4), 0, ["r2", "r3"]) == "r2"
        with pytest.raises(ValueError, match="r9"):
            PlacementSpec("fixed", router="r9").resolve(
                chain(4), 0, ["r2", "r3"])

    def test_seeded_random_is_seed_deterministic(self):
        spec = PlacementSpec("seeded-random")
        pool = [f"r{i}" for i in range(2, 7)]
        picks = {spec.resolve(chain(8), seed, pool) for seed in range(20)}
        assert spec.resolve(chain(8), 3, pool) \
            == spec.resolve(chain(8), 3, list(reversed(pool)))
        assert len(picks) > 1  # the seed actually matters

    def test_max_betweenness_picks_chain_middle(self):
        topo = chain(5)
        spec = PlacementSpec("max-betweenness")
        assert spec.resolve(topo, 0, ["r2", "r3", "r4"]) == "r3"

    def test_articulation_point_on_chain(self):
        # Every interior chain router is an articulation point; the
        # betweenness tie-break picks the middle one.
        spec = PlacementSpec("articulation-point")
        assert spec.resolve(chain(5), 0, ["r2", "r3", "r4"]) == "r3"

    def test_articulation_point_falls_back_on_ring(self):
        # A cycle has no articulation points: fall back to betweenness
        # over the full pool instead of failing.
        spec = PlacementSpec("articulation-point")
        picked = spec.resolve(ring(6), 0, ["r2", "r3", "r4"])
        assert picked in {"r2", "r3", "r4"}

    def test_strategies_constant_matches_spec(self):
        assert set(PLACEMENT_STRATEGIES) == {
            "fixed", "seeded-random", "max-betweenness",
            "articulation-point"}
        assert BEHAVIORS[0] == "none"


class TestDeprecatedShims:
    @pytest.fixture(autouse=True)
    def fresh_warning_state(self):
        saved = set(_SHIM_WARNED)
        _SHIM_WARNED.clear()
        yield
        _SHIM_WARNED.clear()
        _SHIM_WARNED.update(saved)

    def test_droptail_shim_warns_exactly_once(self):
        from repro.eval import build_droptail_scenario
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            build_droptail_scenario()
            build_droptail_scenario()
        deprecations = [w for w in seen
                        if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert "droptail_spec" in str(deprecations[0].message)

    def test_red_shim_warns_exactly_once(self):
        from repro.eval import build_red_scenario
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            build_red_scenario()
            build_red_scenario()
        deprecations = [w for w in seen
                        if issubclass(w.category, DeprecationWarning)]
        assert len(deprecations) == 1
        assert "red_spec" in str(deprecations[0].message)

    def test_shim_output_matches_spec_path(self):
        from repro.eval import build_droptail_scenario, droptail_spec
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            old = build_droptail_scenario(seed=3)
        new = build_scenario(droptail_spec(seed=3))
        assert type(old) is type(new)
        assert sorted(old.network.routers) == sorted(new.network.routers)


class TestDottedParams:
    def test_fold_basic(self):
        assert fold_dotted_params(
            {"topology": "line", "adversary.behavior": "drop",
             "adversary.rate": 0.5}) == {
            "topology": "line",
            "adversary": {"behavior": "drop", "rate": 0.5}}

    def test_fold_merges_mapping_and_dotted(self):
        folded = fold_dotted_params(
            {"adversary": {"behavior": "drop"}, "adversary.rate": 0.1})
        assert folded == {"adversary": {"behavior": "drop", "rate": 0.1}}

    def test_fold_is_idempotent(self):
        folded = fold_dotted_params({"a.b": 1, "c": 2})
        assert fold_dotted_params(folded) == folded

    def test_fold_conflicts_raise(self):
        with pytest.raises(ValueError, match="scalar"):
            fold_dotted_params({"adversary": 3, "adversary.rate": 0.1})
        with pytest.raises(ValueError, match="bad dotted"):
            fold_dotted_params({"adversary.": 1})

    def test_dotted_param_spec_resolution_and_coercion(self):
        spec = get_experiment("attack_matrix")
        rate = spec.param_spec("adversary.rate")
        assert rate.coerce("0.25") == 0.25  # typed coercion from CLI text
        with pytest.raises(ParamError, match="adversary.behavior"):
            spec.param_spec("adversary.behavior").coerce("nuke")

    def test_unknown_dotted_path_names_accepted_keys(self):
        spec = get_experiment("attack_matrix")
        with pytest.raises(ParamError,
                           match="placement.strategy, placement.router"):
            spec.param_spec("placement.strateggy")
        with pytest.raises(ParamError, match="does not accept"):
            spec.param_spec("nonsense.key")

    def test_run_accepts_flat_dotted_params(self):
        # The worker boundary: flat dotted payload params must fold
        # before hitting the experiment function.
        spec = get_experiment("attack_matrix")
        result = spec.run(**{"topology": "line",
                             "adversary.behavior": "none", "rounds": 2})
        assert result.behavior == "none" and not result.detected


class TestAttackScenarioBuild:
    def test_build_scenario_places_adversary_on_a_flow_path(self):
        scenario = build_scenario(ScenarioSpec(
            topology={"name": "line"},
            adversary={"behavior": "drop"},
            placement={"strategy": "max-betweenness"}))
        bad = scenario.adversary_router
        assert any(bad in path[1:-1]
                   for path in scenario.flow_paths.values())
        assert scenario.attack is not None

    def test_simple_topology_routes_to_testbed_builders(self):
        from repro.eval import droptail_spec, red_spec
        droptail = build_scenario(droptail_spec())
        red = build_scenario(red_spec())
        assert type(droptail).__name__ == "DropTailScenario"
        assert type(red).__name__ == "REDScenario"

    def test_abilene_matches_paper_scale(self):
        assert len(abilene().routers) == 11


class TestAttackMatrixSweepE2E:
    GRID = ["--grid", "adversary.behavior=drop,none",
            "--param", "topology=line",
            "--param", "placement.strategy=max-betweenness"]

    #: Golden sha256 of aggregate.csv for the grid above at root seed 0.
    #: A change means spec construction or detection scoring drifted for
    #: a fixed seed — a bug, not a baseline refresh.
    GOLDEN_AGGREGATE = ("8e91d58e13e662db45d20df4431eec0a"
                        "a157271440d6e07c25c1b2b911e58314")

    def _sweep(self, out) -> str:
        assert main(["sweep", "attack_matrix", "--seeds", "1", "--jobs",
                     "1", "--no-cache", "--quiet", "--out", str(out)]
                    + self.GRID) == 0
        with open(out / "aggregate.csv", "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def test_aggregate_bit_identical_across_runs(self, tmp_path):
        first = self._sweep(tmp_path / "a")
        second = self._sweep(tmp_path / "b")
        assert first == second == self.GOLDEN_AGGREGATE
        manifest = json.loads((tmp_path / "a" / "sweep.json").read_text())
        assert manifest["schema"] == "repro.sweep/v4"
        assert len(manifest["runs"]) == 2
        header = (tmp_path / "a" / "aggregate.csv").read_text().splitlines()
        fields = {line.split(",")[0] for line in header[1:]}
        assert {"precision", "recall", "detected"} <= fields

"""Picklable experiment registry shared by the CLI, sweeps and benches.

Each paper table/figure is registered once as an :class:`ExperimentSpec`
naming a **top-level** experiment function plus a reporter that formats
its result for the terminal.  Because specs reference module-level
callables only, an experiment can be named by string, shipped to a
worker process, executed there, and its result serialized — which is
what ``python -m repro sweep`` does.

Every spec carries a typed :class:`ParamSpec` table (name, type,
default, choices), derived from the experiment function's signature
unless declared explicitly.  CLI ``--param``/``--grid`` values are
coerced and validated against that table **before** any worker starts,
so a typo'd parameter fails in milliseconds with an actionable message
instead of deep inside a process pool.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.eval import experiments as ex
from repro.eval.specs import (
    BEHAVIORS,
    PLACEMENT_STRATEGIES,
    TRAFFIC_KINDS,
    AdversarySpec,
    topology_names,
)


# ---------------------------------------------------------------------------
# Reporters: result object -> printable lines
# ---------------------------------------------------------------------------

def report_scenario(result) -> List[str]:
    return [
        f"detected: {result.detected}",
        f"detection latency (rounds): {result.metrics.detection_latency_rounds}",
        f"false positive rounds: {result.metrics.false_positive_rounds}",
        f"drops: {result.total_drops} total, {result.congestive_drops} "
        f"congestive, {result.malicious_drops_truth} truly malicious",
    ]


def report_pr_curve(curve) -> List[str]:
    lines = [f"topology={curve.topology} protocol={curve.protocol}",
             "k  max  mean  median"]
    lines += [f"{k}  {mx:.0f}  {mean:.1f}  {med:.1f}"
              for k, mx, mean, med in curve.rows()]
    return lines


def report_fatih(r) -> List[str]:
    return [
        f"convergence: {r.convergence_time:.1f} s",
        f"attack at {r.attack_time:.1f} s, detected at "
        f"{r.first_detection:.1f} s, rerouted at {r.reroute_time:.1f} s",
        f"RTT {1000 * r.rtt_before:.1f} -> {1000 * r.rtt_after:.1f} ms",
        "suspected: " + "; ".join(" -> ".join(s)
                                  for s in r.suspected_segments),
    ]


def report_threshold(t) -> List[str]:
    lines = [f"benign max losses {t.benign_max_losses}; "
             f"malicious total {t.total_malicious_drops}"]
    for th in t.thresholds:
        lines.append(
            f"  T={th:3d}: fp={t.static_fp_rounds[th]:3d} "
            f"detected={t.static_detected[th]!s:5s} "
            f"free drops={t.static_free_drops[th]}")
    lines.append(f"  chi: fp={t.chi_fp_rounds} "
                 f"detected={t.chi_detected}")
    return lines


def report_response(res) -> List[str]:
    return [f"{k}: unreachable={v.unreachable_pairs} "
            f"mean stretch={v.mean_stretch:.3f}"
            for k, v in res.items()]


def report_ns_points(points) -> List[str]:
    return [f"rate {p.drop_rate:.2f}: detected={p.detected} "
            f"latency={p.detection_latency_rounds} "
            f"fp={p.false_positive_rounds}"
            for p in points]


def report_overhead(result) -> List[str]:
    return result.rows()


def report_protocol_bench(r) -> List[str]:
    return [
        f"{r.protocol} on {r.bad_router}: "
        f"suspicions={r.total_suspicions} accurate={r.accurate} "
        f"complete={r.complete} precision={r.precision}",
        f"simulator events: {r.sim_events}",
    ]


def report_attack_matrix(r) -> List[str]:
    latency = ("n/a" if r.latency is None else f"{r.latency:.2f}s")
    return [
        f"{r.topology}: {r.behavior}@{r.rate:g} on {r.adversary_router} "
        f"({r.placement_strategy})",
        f"detected={r.detected} precision={r.precision:.2f} "
        f"recall={r.recall:.2f} latency={latency}",
        f"suspicions: {r.total_suspicions} total, "
        f"{r.false_suspicions} false; simulator events: {r.sim_events}",
    ]


def report_baselines(demos) -> List[str]:
    return [f"{demo.name}: {demo.values}" for demo in demos]


def report_modeling(m) -> List[str]:
    return [f"predicted loss {m.predicted_loss_prob:.4f} "
            f"observed {m.observed_loss_rate:.4f} "
            f"rel err {m.relative_error:.2f}"]


def baseline_demos() -> List[ex.BaselineDemo]:
    """The Ch. 3 baseline flaw demonstrations, bundled as one experiment."""
    return [ex.watchers_flaw_demo(), ex.perlman_collusion_demo(),
            ex.sectrace_framing_demo(), ex.awerbuch_localization_demo()]


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

class ParamError(ValueError):
    """A CLI/API parameter failed validation against an experiment spec."""


_MISSING = object()  # "no default declared" sentinel (None is a real default)

#: Annotation spellings we coerce; anything else passes through untouched.
_ANNOTATION_TYPES = {
    "int": int, "float": float, "bool": bool, "str": str,
    int: int, float: float, bool: bool, str: str,
}


@dataclass(frozen=True)
class ParamSpec:
    """One declared experiment parameter: name, type, default, choices.

    ``type=None`` means untyped — any value passes through.  ``choices``
    restricts accepted values after coercion.  ``fields`` declares a
    one-level nested parameter (a spec-shaped mapping): the value must
    be a mapping whose keys are validated/coerced against the sub-table,
    and the CLI addresses sub-keys with dotted names
    (``--grid adversary.rate=0.01,0.05``).  ``check``, when set, is called
    on the coerced mapping to enforce constraints between its keys (it
    raises ``ValueError``; its return value is ignored).
    """

    name: str
    type: Optional[type] = None
    default: object = _MISSING
    choices: Optional[Tuple[object, ...]] = None
    fields: Optional[Tuple["ParamSpec", ...]] = None
    check: Optional[Callable[[Mapping], object]] = None

    @property
    def required(self) -> bool:
        return self.default is _MISSING

    def field_spec(self, sub: str) -> "ParamSpec":
        """The sub-parameter spec for ``<name>.<sub>``, dotted-renamed."""
        dotted = f"{self.name}.{sub}"
        if self.fields is None:
            raise ParamError(
                f"parameter {self.name!r} has no nested fields; "
                f"{dotted!r} is not a valid parameter")
        for field_param in self.fields:
            if field_param.name == sub:
                return replace(field_param, name=dotted)
        raise ParamError(
            f"unknown parameter {dotted!r}; accepted: "
            + ", ".join(f"{self.name}.{f.name}" for f in self.fields))

    def coerce(self, value: object, *, experiment: str = "") -> object:
        """Convert/validate one value, raising an actionable ParamError."""
        where = f"experiment {experiment!r} " if experiment else ""
        if self.fields is not None:
            if value is None:
                return None
            if not isinstance(value, Mapping):
                raise ParamError(
                    f"{where}parameter {self.name!r} expects a mapping "
                    f"(address sub-keys as {self.name}."
                    f"{self.fields[0].name} etc.); got {value!r}")
            coerced_fields = {key: self.field_spec(str(key)).coerce(
                                  sub_value, experiment=experiment)
                              for key, sub_value in value.items()}
            if self.check is not None:
                try:
                    self.check(coerced_fields)
                except ValueError as error:
                    raise ParamError(
                        f"{where}parameter {self.name!r}: {error}") from None
            return coerced_fields
        coerced = value
        # CLI literal parsing turns the text "none" into Python None; a
        # str parameter whose choices include "none" (e.g. the adversary
        # behavior control cell) means that spelling, not "no value".
        if (value is None and self.type is str and self.choices is not None
                and "none" in self.choices):
            return "none"
        if self.type is not None and value is not None:
            if self.type is bool and not isinstance(value, bool):
                text = str(value).lower()
                if text in ("true", "1", "yes"):
                    coerced = True
                elif text in ("false", "0", "no"):
                    coerced = False
                else:
                    raise ParamError(
                        f"{where}parameter {self.name!r} expects bool, "
                        f"got {value!r} (use true/false)")
            elif isinstance(value, bool) and self.type in (int, float):
                raise ParamError(
                    f"{where}parameter {self.name!r} expects "
                    f"{self.type.__name__}, got bool {value!r}")
            elif not isinstance(value, self.type):
                try:
                    coerced = self.type(value)
                except (TypeError, ValueError):
                    raise ParamError(
                        f"{where}parameter {self.name!r} expects "
                        f"{self.type.__name__}, got {value!r}") from None
        if self.choices is not None and coerced not in self.choices:
            raise ParamError(
                f"{where}parameter {self.name!r} must be one of "
                f"{', '.join(repr(c) for c in self.choices)}; "
                f"got {coerced!r}")
        return coerced

    def describe(self) -> str:
        if self.fields is not None:
            inner = ", ".join(f.describe() for f in self.fields)
            return f"{self.name}.{{{inner}}}"
        bits = [self.name]
        if self.type is not None:
            bits.append(f": {self.type.__name__}")
        if self.default is not _MISSING:
            bits.append(f" = {self.default!r}")
        if self.choices is not None:
            bits.append(" in {" + ", ".join(repr(c) for c in self.choices)
                        + "}")
        return "".join(bits)


def params_from_signature(fn: Callable[..., object]) -> Tuple[ParamSpec, ...]:
    """Derive a ParamSpec table from a function's signature.

    Only simple scalar annotations (int/float/bool/str) become typed;
    sequences, unions and exotica stay untyped so arbitrary Python
    values can still be passed through the API.
    """
    specs = []
    for param in inspect.signature(fn).parameters.values():
        if param.kind not in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY):
            continue
        annotation = param.annotation
        declared = _ANNOTATION_TYPES.get(annotation)
        default = (_MISSING if param.default is inspect.Parameter.empty
                   else param.default)
        if declared is None and default is not _MISSING \
                and isinstance(default, (int, float, bool, str)):
            declared = type(default)
        specs.append(ParamSpec(param.name, declared, default))
    return tuple(specs)


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: a picklable function, reporter, params.

    ``params`` is the typed parameter table; leave it empty and it is
    derived from ``fn``'s signature (explicit entries override the
    derived ones by name, so a spec can e.g. add ``choices`` to one
    parameter without restating the rest).
    """

    name: str
    fn: Callable[..., object]
    reporter: Callable[[object], List[str]]
    defaults: Tuple[Tuple[str, object], ...] = ()
    description: str = ""
    params: Tuple[ParamSpec, ...] = ()

    def __post_init__(self) -> None:
        derived = params_from_signature(self.fn)
        overrides = {p.name: p for p in self.params}
        unknown = sorted(set(overrides) - {p.name for p in derived})
        if unknown:
            raise ValueError(
                f"experiment {self.name!r} declares ParamSpec(s) "
                f"{', '.join(unknown)} not in {self.fn.__name__}'s "
                f"signature")
        merged = tuple(overrides.get(p.name, p) for p in derived)
        object.__setattr__(self, "params", merged)

    @property
    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    @property
    def accepts_seed(self) -> bool:
        return "seed" in self.param_names

    def param_spec(self, name: str) -> ParamSpec:
        """Resolve a (possibly dotted, ``root.sub``) parameter name."""
        root, _, rest = name.partition(".")
        for param in self.params:
            if param.name == root:
                if not rest:
                    return param
                try:
                    return param.field_spec(rest)
                except ParamError as error:
                    raise ParamError(
                        f"experiment {self.name!r}: {error}") from None
        raise ParamError(
            f"experiment {self.name!r} does not accept parameter "
            f"{name!r}; accepted: {', '.join(self.param_names) or '(none)'}")

    def coerce_params(self, values: Mapping[str, object]) -> Dict[str, object]:
        """Validate/coerce a parameter mapping against the table."""
        return {name: self.param_spec(name).coerce(value,
                                                   experiment=self.name)
                for name, value in values.items()}

    def resolve_params(self, params: Mapping[str, object]) -> Dict[str, object]:
        """The validated keyword arguments :meth:`run` passes to ``fn``:
        defaults merged in, dotted keys folded, every value coerced."""
        from repro.sweep.grid import fold_dotted_params

        merged = dict(self.defaults)
        merged.update(params)
        return self.coerce_params(fold_dotted_params(merged))

    def run(self, **params):
        return self.fn(**self.resolve_params(params))

    def report(self, result) -> List[str]:
        return self.reporter(result)


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    _REGISTRY.pop(name, None)


def names() -> List[str]:
    return list(_REGISTRY)


def get(name: str) -> ExperimentSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(_REGISTRY)}") from None


def registry() -> Dict[str, ExperimentSpec]:
    return dict(_REGISTRY)


def run_experiment(name: str, params: Mapping[str, object] = {}) -> object:
    """Look an experiment up by name and run it — the worker entry point."""
    return get(name).run(**dict(params))


for _spec in (
    ExperimentSpec("fig5_2", ex.fig5_2_pr_pi2, report_pr_curve,
                   defaults=(("topology", "ebone"),),
                   description="Fig 5.2: segments monitored per router, Π2"),
    ExperimentSpec("fig5_4", ex.fig5_4_pr_pik2, report_pr_curve,
                   defaults=(("topology", "ebone"),),
                   description="Fig 5.4: segments monitored per router, Πk+2"),
    ExperimentSpec("overhead", ex.state_overhead, report_overhead,
                   description="§5.1.1/§5.2.1: counter state vs WATCHERS"),
    ExperimentSpec("fig5_7", ex.fig5_7_fatih, report_fatih,
                   description="Fig 5.7: Fatih attack/detect/reroute timeline"),
    ExperimentSpec("fig6_3", ex.fig6_3_ns_simulation, report_ns_points,
                   description="Fig 6.3: χ detection across attack rates"),
    ExperimentSpec("fig6_5", ex.fig6_5_no_attack, report_scenario,
                   description="Fig 6.5: droptail, pure congestion"),
    ExperimentSpec("fig6_6", ex.fig6_6_attack1, report_scenario,
                   description="Fig 6.6: drop 20% of the selected flow"),
    ExperimentSpec("chi", ex.chi_detection_bench, report_scenario,
                   description="bench: small, fast χ detection scenario "
                               "(CI smoke / profiling)"),
    ExperimentSpec("pi2_bench", ex.pi2_bench, report_protocol_bench,
                   description="bench: Π2 packet-plane run, 6-router chain"),
    ExperimentSpec("pik2_bench", ex.pik2_bench, report_protocol_bench,
                   description="bench: Πk+2 packet-plane run, 6-router chain"),
    ExperimentSpec("tcp_heavy", ex.tcp_heavy_bench, report_scenario,
                   description="bench: TCP-heavy droptail congestion, "
                               "no attack"),
    ExperimentSpec("adversary_heavy", ex.adversary_heavy_bench,
                   report_scenario,
                   description="bench: RED with combined conditional-drop "
                               "+ SYN-drop adversary"),
    ExperimentSpec("fig6_7", ex.fig6_7_attack2, report_scenario,
                   description="Fig 6.7: drop selected flow at queue 90%"),
    ExperimentSpec("fig6_8", ex.fig6_8_attack3, report_scenario,
                   description="Fig 6.8: drop selected flow at queue 95%"),
    ExperimentSpec("fig6_9", ex.fig6_9_attack4, report_scenario,
                   description="Fig 6.9: SYN-drop a connecting host"),
    ExperimentSpec("fig6_11", ex.fig6_11_red_no_attack, report_scenario,
                   description="Fig 6.11: RED, no attack"),
    ExperimentSpec("fig6_12", ex.fig6_12_red_attack1, report_scenario,
                   description="Fig 6.12: RED drop above 45,000 bytes"),
    ExperimentSpec("fig6_13", ex.fig6_13_red_attack2, report_scenario,
                   description="Fig 6.13: RED drop above 54,000 bytes"),
    ExperimentSpec("fig6_14", ex.fig6_14_red_attack3, report_scenario,
                   description="Fig 6.14: RED drop 10% above 45,000 bytes"),
    ExperimentSpec("fig6_15", ex.fig6_15_red_attack4, report_scenario,
                   description="Fig 6.15: RED drop 5% above 45,000 bytes"),
    ExperimentSpec("fig6_16", ex.fig6_16_red_attack5, report_scenario,
                   description="Fig 6.16: RED SYN-drop"),
    ExperimentSpec("threshold", ex.chi_vs_static_threshold, report_threshold,
                   description="§6.4.3: χ vs static loss thresholds"),
    ExperimentSpec("response", ex.response_strategy_ablation, report_response,
                   description="§2.4.3: segment vs router removal"),
    ExperimentSpec("baselines", baseline_demos, report_baselines,
                   description="Ch. 3 baseline flaw demonstrations"),
    ExperimentSpec("modeling", ex.traffic_modeling_comparison,
                   report_modeling,
                   description="§6.1.2: Appenzeller model vs simulation"),
    ExperimentSpec(
        "attack_matrix", ex.attack_matrix, report_attack_matrix,
        description="WedgeTail-style attack-matrix cell: Π2 detection "
                    "scored over topology x placement x behavior x rate",
        params=(
            ParamSpec("topology", str, "abilene",
                      choices=tuple(n for n in topology_names()
                                    if n != "simple")),
            ParamSpec("adversary", None, None, fields=(
                ParamSpec("behavior", str, "drop", choices=BEHAVIORS),
                ParamSpec("rate", float, 1.0),
                ParamSpec("targeting", str, "flows",
                          choices=("flows", "all")),
                ParamSpec("options", None, ()),
            ), check=AdversarySpec.from_dict),
            ParamSpec("placement", None, None, fields=(
                ParamSpec("strategy", str, "seeded-random",
                          choices=PLACEMENT_STRATEGIES),
                ParamSpec("router", str, ""),
            )),
            ParamSpec("traffic", None, None, fields=(
                ParamSpec("kind", str, "cbr", choices=TRAFFIC_KINDS),
                ParamSpec("flows", int, 2),
                ParamSpec("rate_bps", float, 600_000.0),
                ParamSpec("duration", float, 4.0),
            )),
        )),
):
    register(_spec)


def _load_plugins() -> None:
    """Import the modules named in ``REPRO_PLUGINS`` so they register.

    ``REPRO_PLUGINS`` is an ``os.pathsep``-separated list of importable
    module names; each module registers its experiments at import time
    (via :func:`register`).  This is how extra experiments reach shard
    child processes, which only see this environment variable — a bad
    entry fails loudly rather than silently dropping experiments.
    """
    import importlib
    import os

    for name in os.environ.get("REPRO_PLUGINS", "").split(os.pathsep):
        name = name.strip()
        if not name:
            continue
        try:
            importlib.import_module(name)
        except Exception as error:
            # Without this, a worker on another host dies with a bare
            # traceback that never says which plugin entry was at fault.
            raise ImportError(
                f"REPRO_PLUGINS: plugin module {name!r} failed to "
                f"import/register ({type(error).__name__}: {error}); "
                f"fix the module or drop it from REPRO_PLUGINS"
            ) from error


_load_plugins()

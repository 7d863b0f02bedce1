"""Typed option tables of the CARAML JUBE operations.

Every operation of :func:`repro.core.registry.build_operation_registry`
declares its ``--name value`` options here, once: flag, type, default
(or required), choices and help.  Three front ends read the tables:

* the operations parse their raw string arguments through
  :func:`parse_options`, so an unknown, missing or ill-typed option
  fails the operation instead of being ignored or defaulted;
* ``caraml run-llm``, ``run-resnet`` and ``serve`` build their flags
  from the tables of ``llm_train``, ``resnet_train`` and
  ``llm_serve_cluster``;
* the campaign stream planner parses a planned serve command the way
  the serve operation will.

Parsed values are keyed by :attr:`Option.field`, the library parameter
the option feeds (``--gbs`` -> ``global_batch_size``), so a parsed table
can be passed straight to the config or simulator it describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import JubeError
from repro.serve.cluster.router import DEFAULT_ROUTER_POLICY
from repro.serve.queue import DEFAULT_QUEUE_CAPACITY
from repro.serve.result import PERCENTILE_MODE_EXACT, PERCENTILE_MODES
from repro.serve.scheduler import DEFAULT_BATCH_CAP


@dataclass(frozen=True)
class Option:
    """One ``--name value`` option of a JUBE operation.

    ``type`` converts the raw string; a ``bool`` option is true only
    when spelled ``true`` (a bare ``--flag`` arrives as ``true``).  A
    ``default`` of ``None`` marks an option the operation requires.
    ``field`` is the library parameter the value feeds; it defaults to
    the flag's argparse destination (``name`` with ``_`` for ``-``).
    """

    name: str
    type: Callable[[str], object] = str
    default: object = None
    choices: tuple[str, ...] = ()
    field: str = ""
    help: str | None = None
    metavar: str | None = None

    def __post_init__(self) -> None:
        if not self.field:
            object.__setattr__(self, "field", self.dest)

    @property
    def dest(self) -> str:
        """The argparse destination of the ``--name`` flag."""
        return self.name.replace("-", "_")

    def parse(self, raw: str):
        """The typed value of one raw argument; ValueError if ill-typed."""
        if self.type is bool:
            return raw == "true"
        if self.choices and raw not in self.choices:
            raise ValueError(raw)
        return self.type(raw)


def parse_options(
    operation: str,
    options: tuple[Option, ...],
    args: Mapping[str, str],
    *,
    partial: bool = False,
) -> dict[str, object]:
    """Typed values of an operation's raw arguments, keyed by field.

    Omitted options take their defaults.  An unknown, missing or
    ill-typed option raises :class:`~repro.errors.JubeError` naming the
    operation, the option and the known options.  ``partial`` skips the
    required check and leaves missing required fields out (the stream
    planner reads only the arrival options of a command).
    """
    names = {option.name for option in options}
    for name in args:
        if name not in names:
            raise _error(operation, options, f"unknown option --{name}")
    values: dict[str, object] = {}
    for option in options:
        if option.name in args:
            raw = args[option.name]
            try:
                values[option.field] = option.parse(raw)
            except ValueError:
                expected = "|".join(option.choices) or option.type.__name__
                problem = f"--{option.name} expects {expected}, got {raw!r}"
                raise _error(operation, options, problem) from None
        elif option.default is not None:
            values[option.field] = option.default
        elif not partial:
            problem = f"missing required option --{option.name}"
            raise _error(operation, options, problem)
    return values


def _error(operation: str, options: tuple[Option, ...], problem: str) -> JubeError:
    known = ", ".join(f"--{option.name}" for option in options) or "none"
    return JubeError(f"{operation}: {problem} (known options: {known})")


SYSTEM = Option("system")
SYNTHETIC = Option("synthetic", bool, False, field="synthetic_data")
AMD_VARIANT = Option("amd-variant", default="gcd", choices=("gcd", "gpu"))
POWER_CAP = Option(
    "power-cap",
    float,
    0.0,
    field="power_cap_watts",
    metavar="WATTS",
    help="per-device power cap in watts (0 = uncapped; derates clocks "
    "through the DVFS model — see 'caraml powercap')",
)

LLM_TRAIN = (
    SYSTEM,
    Option("model", default="800M", field="model_size"),
    Option("gbs", int, field="global_batch_size"),
    Option("mbs", int, 4, field="micro_batch_size"),
    Option("duration", float, 120.0, field="exit_duration_s", help="seconds"),
    AMD_VARIANT,
    SYNTHETIC,
    POWER_CAP,
)

RESNET_TRAIN = (
    SYSTEM,
    Option("model", default="resnet50"),
    Option("gbs", int, field="global_batch_size"),
    Option("devices", int, 1),
    AMD_VARIANT,
    SYNTHETIC,
    POWER_CAP,
)

_SERVE_STREAM = (
    SYSTEM,
    Option("model", default="800M"),
    Option("rate", float, field="rate_per_s", help="Poisson arrival rate (req/s)"),
    Option("requests", int, 32),
    Option("batch-cap", int, DEFAULT_BATCH_CAP),
    Option("queue-cap", int, DEFAULT_QUEUE_CAPACITY, field="queue_capacity"),
    Option("prompt-tokens", int, 512),
    Option("generate-tokens", int, 128),
    Option(
        "spread",
        float,
        0.0,
        field="length_spread",
        help="fractional uniform jitter on per-request lengths",
    ),
    Option("seed", int, 0, help="arrival-stream seed"),
)
_SERVE_POLICY = (
    Option("slo-ttft-ms", float, 0.0, help="TTFT SLO (0 disables)"),
    Option("slo-e2e-ms", float, 0.0, help="end-to-end SLO (0 disables)"),
    Option(
        "percentiles",
        default=PERCENTILE_MODE_EXACT,
        choices=tuple(sorted(PERCENTILE_MODES)),
        field="percentile_mode",
        help="latency percentile computation: exact nearest-rank over "
        "retained samples, or p2 streaming sketches (bounded summary memory)",
    ),
    POWER_CAP,
)

LLM_SERVE = _SERVE_STREAM + _SERVE_POLICY

_CLUSTER = (
    Option(
        "replicas",
        int,
        2,
        help="engine replicas; >1 serves on the multi-replica cluster",
    ),
    # Routers are a registry users extend, so the cluster validates the
    # name; only the caraml flag restricts it to the built-in policies.
    Option(
        "router",
        default=DEFAULT_ROUTER_POLICY,
        help="cluster routing policy (with --replicas > 1)",
    ),
    Option(
        "sessions",
        int,
        0,
        help="cluster runs: >0 generates session traffic with shared "
        "prompt prefixes instead of independent Poisson arrivals",
    ),
    Option(
        "prefix-tokens",
        int,
        384,
        help="shared prefix length of session traffic (with --sessions)",
    ),
    Option(
        "autoscale",
        bool,
        False,
        help="scale replicas on queue depth between --min-replicas and "
        "--replicas (spin-up delay/energy and idle power modelled)",
    ),
    Option("min-replicas", int, 1, help="autoscaler floor (with --autoscale)"),
    Option(
        "prefill-replicas",
        int,
        0,
        help="disaggregated cluster: prefill-pool size (with "
        "--decode-replicas; overrides --replicas)",
    ),
    Option("decode-replicas", int, 0, help="disaggregated cluster: decode-pool size"),
)

LLM_SERVE_CLUSTER = _SERVE_STREAM + _CLUSTER + _SERVE_POLICY

#: Operation name -> its option table.
OPERATION_OPTIONS: dict[str, tuple[Option, ...]] = {
    "pull_container": (
        SYSTEM,
        Option("framework", default="pytorch", choices=("pytorch", "tensorflow")),
    ),
    "prepare_data": (SYNTHETIC,),
    "llm_train": LLM_TRAIN,
    "resnet_train": RESNET_TRAIN,
    "llm_serve": LLM_SERVE,
    "llm_serve_cluster": LLM_SERVE_CLUSTER,
    "analyse": (Option("patterns"),),
    "combine_energy": (),
}

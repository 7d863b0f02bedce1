"""The ``jpwr`` command-line tool.

Mirrors the paper's CLI::

    jpwr --methods rocm --df-out energy_meas --df-filetype csv \\
        stress-ng --gpu 8 -t 5

i.e. jpwr wraps another application, sampling power while it runs, and
writes the DataFrames on exit.  Because the devices here are simulated,
the CLI additionally accepts:

* ``--system TAG`` -- build the device registry of one Table I node
  (required unless a registry is already installed by the caller),
* ``--load UTIL:SECONDS`` (repeatable) -- instead of wrapping a real
  command, drive all devices through synthetic constant-utilisation
  phases in virtual time.  This is what makes the tool demonstrable
  offline; a wrapped real command runs with devices at whatever
  utilisation the load phases (default: idle) left them.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

from repro.errors import ReproError
from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.jpwr.ctxmgr import get_power
from repro.jpwr.export import FILETYPES, export_measurement
from repro.jpwr.methods import available_methods, create_method
from repro.jpwr.methods.base import set_active_registry
from repro.obs.log import (
    add_verbosity_flags,
    configure_logging,
    run_console_script,
    verbosity_from_args,
)
from repro.power.sensors import DeviceRegistry
from repro.simcluster.clock import VirtualClock


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the jpwr CLI."""
    parser = argparse.ArgumentParser(
        prog="jpwr",
        description="Measure power and energy of (simulated) compute devices.",
    )
    add_verbosity_flags(parser)
    parser.add_argument(
        "--methods",
        nargs="+",
        required=True,
        choices=available_methods(),
        help="measurement backends to activate",
    )
    parser.add_argument(
        "--system",
        default="A100",
        choices=SYSTEM_TAGS,
        help="Table I system whose node to measure (default: A100)",
    )
    parser.add_argument(
        "--interval",
        type=float,
        default=100.0,
        metavar="MS",
        help="sampling period in milliseconds (default: 100)",
    )
    parser.add_argument("--df-out", default=None, help="output directory for DataFrames")
    parser.add_argument(
        "--df-filetype", default="csv", choices=FILETYPES, help="output file type"
    )
    parser.add_argument(
        "--df-suffix",
        default="",
        help="suffix appended to result files; %%q{VAR} expands from the environment",
    )
    parser.add_argument(
        "--load",
        action="append",
        default=[],
        metavar="UTIL:SECONDS",
        help="synthetic load phase (virtual time); repeatable",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="FILE.csv",
        help="replay a recorded utilisation timeline (duration_s,utilisation "
        "CSV) onto the devices in virtual time",
    )
    parser.add_argument(
        "--plot",
        default=None,
        metavar="FILE.svg",
        help="render the sampled power trace as an SVG chart",
    )
    parser.add_argument(
        "command",
        nargs=argparse.REMAINDER,
        help="application to wrap (everything after the options)",
    )
    return parser


def _parse_load(spec: str) -> tuple[float, float]:
    try:
        util_s, dur_s = spec.split(":")
        util, dur = float(util_s), float(dur_s)
    except ValueError:
        raise ReproError(f"bad --load {spec!r}; expected UTIL:SECONDS") from None
    if not 0.0 <= util <= 1.0:
        raise ReproError(f"--load utilisation must be in [0,1], got {util}")
    if dur <= 0:
        raise ReproError(f"--load duration must be positive, got {dur}")
    return util, dur


def run(argv: list[str] | None = None, *, stdout=None) -> int:
    """Entry point body; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(verbosity_from_args(args))

    command = list(args.command)
    if command and command[0] == "--":
        command = command[1:]
    loads = [_parse_load(spec) for spec in args.load]
    if args.replay:
        from pathlib import Path

        from repro.power.trace import UtilisationTimeline

        try:
            timeline = UtilisationTimeline.from_csv(Path(args.replay).read_text())
        except (OSError, ValueError) as exc:
            raise ReproError(f"cannot replay {args.replay!r}: {exc}") from None
        loads.extend((util, dur) for _, dur, util in timeline.segments())
    if not loads and not command:
        parser.error(
            "nothing to measure: give a command, --load or --replay"
        )

    node = get_system(args.system)
    clock = VirtualClock() if loads and not command else None
    registry = DeviceRegistry.for_node(node, clock=clock)
    set_active_registry(registry)
    try:
        methods = [create_method(name) for name in args.methods]
        exit_code = 0
        if clock is not None:
            # Pure synthetic load: deterministic virtual-time sampling.
            with get_power(methods, args.interval, clock=clock, manual=True) as scope:
                step = args.interval / 1000.0
                for util, duration in loads:
                    for dev in registry:
                        dev.set_utilisation(util)
                    remaining = duration
                    while remaining > 0:
                        advance = min(step, remaining)
                        clock.advance(advance)
                        scope.sample()
                        remaining -= advance
                for dev in registry:
                    dev.set_utilisation(0.0)
        else:
            # Wrap a real command, sampling in real time.
            for util, duration in loads:  # pragma: no cover - loads+command
                for dev in registry:
                    dev.set_utilisation(util)
            with get_power(methods, args.interval) as scope:
                result = subprocess.run(command)
                exit_code = result.returncode

        energy_df, additional = scope.energy()
        print("Energy consumed (Wh):", file=out)
        for label, wh in energy_df.row(0).items():
            print(f"  {label}: {wh:.6f}", file=out)
        if args.df_out:
            paths = export_measurement(
                scope.df,
                energy_df,
                additional,
                args.df_out,
                args.df_filetype,
                suffix=args.df_suffix,
            )
            for path in paths:
                print(f"wrote {path}", file=out)
        if args.plot:
            from repro.analysis.render import render_power_trace

            plot_path = render_power_trace(scope.df, args.plot)
            print(f"wrote {plot_path}", file=out)
        return exit_code
    finally:
        set_active_registry(None)


def main() -> None:
    """Console-script entry point."""
    run_console_script("jpwr", run, __name__)


if __name__ == "__main__":
    main()

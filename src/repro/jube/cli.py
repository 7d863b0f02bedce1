"""The standalone ``jube-lite`` command.

Mirrors the JUBE command sequence the paper's Appendix documents::

    jube-lite run llm_benchmark_ipu.yaml --tag 117M synthetic
    jube-lite continue llm_benchmark_ipu_run -i last
    jube-lite result llm_benchmark_ipu_run -i last

Runs persist to ``<script>_run/NNNNNN/`` directories so ``continue``
and ``result`` work across invocations, exactly like the original.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core.registry import build_operation_registry
from repro.jube.runner import JubeRunner
from repro.jube.rundir import load_run, resolve_run_id, save_run
from repro.jube.script import load_script
from repro.obs.log import (
    add_verbosity_flags,
    configure_logging,
    run_console_script,
    verbosity_from_args,
)


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for jube-lite."""
    parser = argparse.ArgumentParser(
        prog="jube-lite",
        description="Minimal JUBE workflow runner for the CARAML scripts.",
    )
    add_verbosity_flags(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a benchmark script")
    run.add_argument("script", help="path to a YAML/XML benchmark script")
    run.add_argument("--tag", action="append", default=[], dest="tags")

    cont = sub.add_parser("continue", help="run deferred post-processing steps")
    cont.add_argument("run_dir", help="benchmark run directory (<script>_run)")
    cont.add_argument("-i", "--id", default="last")

    result = sub.add_parser("result", help="print a result table")
    result.add_argument("run_dir", help="benchmark run directory (<script>_run)")
    result.add_argument("-i", "--id", default="last")
    result.add_argument("--table", default=None)
    return parser


def main_body(argv: list[str] | None = None, *, stdout=None) -> int:
    """CLI body; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    args = build_parser().parse_args(argv)
    configure_logging(verbosity_from_args(args))
    runner = JubeRunner(build_operation_registry())

    if args.command == "run":
        script_path = Path(args.script)
        script = load_script(script_path)
        run = runner.run(script, tags=args.tags)
        target = save_run(run, script_path)
        print(f"stored run in {target}", file=out)
        print(
            f"steps: {', '.join(sorted(run.completed_steps))} "
            f"({len(run.workpackages)} workpackages)",
            file=out,
        )
        return 0

    run_path = resolve_run_id(args.run_dir, args.id)
    run, script_path = load_run(run_path)

    if args.command == "continue":
        from repro.jube.rundir import update_run

        runner.continue_run(run)
        update_run(run, run_path, script_path)
        print(f"continued run {run_path}", file=out)
        return 0

    if args.command == "result":
        print(runner.result(run, args.table), file=out)
        return 0

    raise AssertionError("unreachable")  # pragma: no cover


def main() -> None:
    """Console-script entry point."""
    run_console_script("jube-lite", main_body, __name__)


if __name__ == "__main__":
    main()

"""Logging for the ``repro.*`` namespace.

Every module logs through :func:`get_logger`, which namespaces loggers
under ``repro`` so one :func:`configure_logging` call (driven by the
CLIs' ``--verbose``/``-q`` flags) controls the whole stack:

===========  =========  =============================================
verbosity    level      typical content
===========  =========  =============================================
``-q``       ERROR      only failures
default      WARNING    dropped samples, degraded behaviour
``-v``       INFO       campaign/step progress, cache decisions
``-vv``      DEBUG      per-workpackage detail, hashing inputs
===========  =========  =============================================

Diagnostics go to **stderr**; user-facing result tables stay on
stdout, so ``caraml ... | column -t`` pipelines keep working at any
verbosity.
"""

from __future__ import annotations

import logging
import sys
from typing import Callable, NoReturn

from repro.errors import ReproError

#: Root logger name of the whole reproduction.
ROOT_LOGGER = "repro"

#: Map of CLI verbosity (-1 for -q) to logging level.
_LEVELS = {-1: logging.ERROR, 0: logging.WARNING, 1: logging.INFO, 2: logging.DEBUG}

_FORMAT = "%(levelname)s %(name)s: %(message)s"


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` namespace.

    ``get_logger("campaign.runner")`` and
    ``get_logger("repro.campaign.runner")`` return the same logger, so
    modules can simply pass ``__name__``.
    """
    if name == ROOT_LOGGER or name.startswith(ROOT_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def configure_logging(verbosity: int = 0) -> logging.Logger:
    """Configure the ``repro`` root logger for a CLI invocation.

    ``verbosity`` follows the CLI flags: ``-1`` for ``-q``, ``0`` for
    the default, ``1`` for ``-v``, ``2`` (or more) for ``-vv``.
    Reconfiguring replaces the handler instead of stacking, so repeated
    in-process CLI invocations (tests) do not duplicate output.
    """
    level = _LEVELS[max(-1, min(int(verbosity), 2))]
    root = logging.getLogger(ROOT_LOGGER)
    root.setLevel(level)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(_FORMAT))
    root.addHandler(handler)
    root.propagate = False
    return root


def add_verbosity_flags(parser) -> None:
    """Attach the standard ``-v/--verbose`` and ``-q/--quiet`` flags.

    The flags accumulate into ``args.verbose`` (``-v -v`` for debug);
    ``verbosity_from_args`` folds them into one integer.
    """
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more diagnostics on stderr (-v info, -vv debug)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="only errors on stderr",
    )


def verbosity_from_args(args) -> int:
    """The verbosity integer encoded by the parsed standard flags."""
    if getattr(args, "quiet", False):
        return -1
    return int(getattr(args, "verbose", 0))


def run_console_script(
    prog: str, body: Callable[[], int], logger_name: str
) -> NoReturn:
    """Exit with ``body()``'s code, as a console script does.

    Bad input (:class:`~repro.errors.ReproError`) and a path the OS
    refuses (:class:`OSError`, e.g. an output directory that is a file)
    are logged as ``<prog>: <message>`` through ``logger_name``'s logger
    and exit 2 instead of a traceback.
    """
    try:
        code = body()
    except (ReproError, OSError) as exc:
        get_logger(logger_name).error("%s: %s", prog, exc)
        sys.exit(2)
    sys.exit(code)

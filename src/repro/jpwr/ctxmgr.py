"""The jpwr context manager (paper §III-A4).

Usage mirrors the paper's example::

    from repro.jpwr.methods.pynvml import PynvmlMethod
    from repro.jpwr.methods.gh import GraceHopperMethod
    from repro.jpwr.ctxmgr import get_power

    met_list = [PynvmlMethod(), GraceHopperMethod()]
    with get_power(met_list, 100) as measured_scope:
        application_call()
    print(measured_scope.df)
    energy_df, additional_data = measured_scope.energy()

The context manager starts a power-measurement loop in a separate
thread that periodically queries power through the configured methods,
saving data points with timestamps; at scope exit the points are
integrated to energy.  Multiple backends can be active at once ("useful
for GH200, where both pynvml and sysfs methods can be used").

For deterministic virtual-time simulation, pass ``manual=True`` and a
virtual ``clock``: no thread is started and the driver (the training
engine) calls :meth:`MeasuredScope.sample` at each simulated step.  A
caller that knows which state a read depends on passes it as the
sample's key, and the scope reads the sensors once per key.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Hashable, Sequence

from repro.errors import MeasurementError
from repro.jpwr.energy import TIME_COLUMN, energy_frame
from repro.jpwr.frame import DataFrame
from repro.jpwr.methods.base import PowerMethod
from repro.obs.log import get_logger

logger = get_logger(__name__)


class MeasuredScope:
    """Measurement state handed back by :func:`get_power`.

    Attributes
    ----------
    df:
        Sample frame: ``time_s`` plus one power column per measured
        quantity across all methods.
    interval_ms:
        Sampling period.
    """

    def __init__(
        self,
        methods: Sequence[PowerMethod],
        interval_ms: float,
        clock: Callable[[], float],
        *,
        manual: bool = False,
        on_error: str = "skip",
    ) -> None:
        if not methods:
            raise MeasurementError("get_power needs at least one method")
        if interval_ms <= 0:
            raise MeasurementError("sampling interval must be positive")
        if on_error not in ("skip", "raise"):
            raise MeasurementError("on_error must be 'skip' or 'raise'")
        self.methods = list(methods)
        self.interval_ms = float(interval_ms)
        self.clock = clock
        self.manual = manual
        self.on_error = on_error
        self.df = DataFrame()
        self.dropped_samples = 0
        self.anomalous_samples = 0
        self._labels: list[str] = []
        self._rows: dict[Hashable, tuple[float, ...]] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Initialise methods, build columns, begin sampling."""
        for method in self.methods:
            method.init()
        self._labels = []
        for method in self.methods:
            for label in method.labels():
                if label in self._labels:
                    raise MeasurementError(f"duplicate measurement label {label!r}")
                self._labels.append(label)
        self.df = DataFrame([TIME_COLUMN, *self._labels])
        self._rows = {}
        self.sample()  # one sample at scope entry, as the real tool does
        if not self.manual:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="jpwr-sampler", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Stop the sampling loop and take a final sample."""
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None
        self.sample()
        if self.dropped_samples:
            logger.warning(
                "dropped %d power samples to sensor read failures",
                self.dropped_samples,
            )
        if self.anomalous_samples:
            logger.warning(
                "discarded %d anomalous (non-finite) power samples",
                self.anomalous_samples,
            )
        logger.debug(
            "measurement scope closed: %d samples, %d columns",
            len(self.df), max(0, len(self.df.columns) - 1),
        )

    def _loop(self) -> None:
        period_s = self.interval_ms / 1000.0
        while not self._stop.wait(period_s):
            self.sample()

    # -- sampling ------------------------------------------------------------

    def sample(self, key: Hashable | None = None) -> None:
        """Take one sample across all methods.

        A failing read (sensor dropout) either drops the whole sample
        (``on_error='skip'``, counted in :attr:`dropped_samples`) or
        propagates (``on_error='raise'``).  A sample containing a
        non-finite power value — the MI250-style sensor anomalies the
        paper reports — is always discarded (counted in
        :attr:`anomalous_samples`) so one bogus reading cannot poison
        the trapezoidal energy integration.

        ``key`` names the state every read depends on; the caller
        promises that reads under one key return the same values.  The
        first sample under a key reads every method as above and keeps
        the row if it was appended; a later sample under that key
        appends the kept values at the current clock time without
        reading a sensor, so the frame is the one full reads would
        give.  ``None`` (the default) always reads.
        """
        if key is not None:
            values = self._rows.get(key)
            if values is not None:
                with self._lock:
                    self.df.add_values((self.clock(), *values))
                return
        row: dict[str, float] = {TIME_COLUMN: self.clock()}
        try:
            for method in self.methods:
                row.update(method.read())
        except MeasurementError:
            if self.on_error == "raise":
                raise
            self.dropped_samples += 1
            return
        for label, value in row.items():
            if label != TIME_COLUMN and not math.isfinite(value):
                self.anomalous_samples += 1
                return
        with self._lock:
            self.df.add_row(row)
            if key is not None:
                appended = self.df.row(-1)
                self._rows[key] = tuple(appended[label] for label in self._labels)

    def has_row(self, key: Hashable) -> bool:
        """Whether a sample under ``key`` kept its row (see :meth:`sample`)."""
        return key in self._rows

    def repeat_row(
        self,
        keys: Sequence[Hashable],
        runs: Sequence[int],
        times: Sequence[float],
    ) -> None:
        """Append ``runs[j]`` rows kept under ``keys[j]``, for each j in
        turn, that period cycled over ``times``.

        ``len(times)`` is a multiple of ``sum(runs)``, and every key has
        a kept row (:meth:`has_row`); a key without one raises
        ``KeyError`` and appends nothing.  The frame gains the rows that
        :meth:`sample` under each key at its clock time would append, in
        one bulk append and without reading a sensor.  Each column is
        built run by run by list multiplication.
        """
        rows = [self._rows[key] for key in keys]
        if not times:
            return
        periods = len(times) // sum(runs)
        columns = []
        for values in zip(*rows):
            column: list[float] = []
            for value, run in zip(values, runs):
                column += [value] * run
            column *= periods
            columns.append(column)
        with self._lock:
            self.df.extend_columns([times, *columns])

    # -- results ---------------------------------------------------------------

    def energy(self) -> tuple[DataFrame, dict[str, DataFrame]]:
        """Integrated energy plus per-method additional data.

        Returns the pair the real tool returns: an energy DataFrame
        (one row, Wh per measured column) and a dict of additional
        DataFrames keyed by method-specific names.
        """
        with self._lock:
            edf = energy_frame(self.df)
        additional: dict[str, DataFrame] = {}
        for method in self.methods:
            for key, frame in method.additional_data().items():
                if key in additional:
                    raise MeasurementError(f"duplicate additional-data key {key!r}")
                additional[key] = frame
        return edf, additional

    def total_energy_wh(self) -> float:
        """Sum of integrated energy over all measured columns (Wh)."""
        edf, _ = self.energy()
        return sum(edf.row(0).values())


class _GetPower:
    """Context manager wrapper creating and driving a MeasuredScope."""

    def __init__(self, scope: MeasuredScope) -> None:
        self.scope = scope

    def __enter__(self) -> MeasuredScope:
        self.scope.start()
        return self.scope

    def __exit__(self, exc_type, exc, tb) -> None:
        self.scope.stop()


def get_power(
    methods: Sequence[PowerMethod],
    interval_ms: float = 100.0,
    *,
    clock: Callable[[], float] | None = None,
    manual: bool = False,
    on_error: str = "skip",
) -> _GetPower:
    """Create the jpwr measurement context manager.

    Parameters
    ----------
    methods:
        Backend instances (e.g. ``[PynvmlMethod(), GraceHopperMethod()]``).
    interval_ms:
        Sampling period in milliseconds (the paper's example uses 100).
    clock:
        Time source; defaults to ``time.monotonic``.  Pass a
        :class:`~repro.simcluster.clock.VirtualClock` for simulation.
    manual:
        Disable the sampling thread; the caller invokes
        :meth:`MeasuredScope.sample` explicitly.
    on_error:
        ``"skip"`` drops samples whose read fails; ``"raise"``
        propagates the failure.
    """
    scope = MeasuredScope(
        methods,
        interval_ms,
        clock if clock is not None else time.monotonic,
        manual=manual,
        on_error=on_error,
    )
    return _GetPower(scope)

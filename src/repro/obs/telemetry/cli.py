"""The ``caraml watch`` terminal dashboard.

Two modes over the same renderer:

* **replay** — ``caraml watch run.timeseries.jsonl`` loads an exported
  telemetry file and renders sparkline frames walking forward through
  simulated time (``--frames``), or a single final frame (``--frames 1``),
* **live** — serving commands pass ``--watch`` and the simulator's
  sampler streams into :class:`LiveDashboard`, which re-renders the
  dashboard every few samples while the run progresses.

Replay is deterministic: the same export renders the same frames, so
the dashboard itself is testable byte-for-byte.
"""

from __future__ import annotations

import time

from repro.errors import ConfigError
from repro.obs.telemetry.dashboard import (
    DEFAULT_FRAMES,
    DEFAULT_WIDTH,
    render_dashboard,
    render_frames,
)
from repro.obs.telemetry.export import load_timeseries_jsonl

#: Default number of samples between live dashboard redraws.
DEFAULT_REFRESH_SAMPLES = 10


class LiveDashboard:
    """Streams a sampler's boundaries into periodic dashboard redraws.

    Register with ``sampler.on_sample(dashboard.on_sample)``: every
    ``refresh_samples`` telemetry boundaries the full dashboard is
    re-rendered to ``out``.  ``finish`` draws one last frame so short
    runs (fewer samples than one refresh) still show something.
    """

    def __init__(
        self,
        out,
        *,
        refresh_samples: int = DEFAULT_REFRESH_SAMPLES,
        width: int = DEFAULT_WIDTH,
    ) -> None:
        if refresh_samples < 1:
            raise ConfigError("refresh_samples must be >= 1")
        self.out = out
        self.refresh_samples = int(refresh_samples)
        self.width = int(width)
        self.frames_drawn = 0
        self._since_redraw = 0

    def on_sample(self, t_s: float, sampler) -> None:
        """Sampler callback: redraw every ``refresh_samples`` samples."""
        self._since_redraw += 1
        if self._since_redraw >= self.refresh_samples:
            self._since_redraw = 0
            self._draw(sampler, t_s)

    def finish(self, sampler, t_s: float) -> None:
        """Draw a final frame unless the last redraw was this boundary."""
        if self._since_redraw or not self.frames_drawn:
            self._draw(sampler, t_s)

    def _draw(self, sampler, t_s: float) -> None:
        print(
            render_dashboard(sampler, width=self.width, now_s=t_s),
            file=self.out,
        )
        print(file=self.out)
        self.frames_drawn += 1


def add_watch_subparser(sub) -> None:
    """Register the ``watch`` subcommand on the CLI subparsers."""
    watch = sub.add_parser(
        "watch",
        help="replay an exported telemetry timeseries as a sparkline "
        "dashboard (see 'caraml serve --telemetry')",
    )
    watch.add_argument("file", help="telemetry export (.timeseries.jsonl)")
    watch.add_argument(
        "--frames",
        type=int,
        default=DEFAULT_FRAMES,
        help="frames to render walking forward through simulated time "
        "(1 renders only the final state)",
    )
    watch.add_argument(
        "--width", type=int, default=DEFAULT_WIDTH, help="sparkline width"
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="real-time pause between frames (0 prints them all at once)",
    )


def run_watch_command(args, out) -> int:
    """The ``caraml watch`` body; returns the exit code."""
    if args.frames < 1:
        raise ConfigError("--frames must be >= 1")
    if args.width < 1:
        raise ConfigError("--width must be >= 1")
    export = load_timeseries_jsonl(args.file)
    if args.frames == 1:
        print(render_dashboard(export, width=args.width), file=out)
        return 0
    frames = render_frames(export, frames=args.frames, width=args.width)
    for index, frame in enumerate(frames):
        if index and args.interval > 0:
            time.sleep(args.interval)
        print(frame, file=out)
        print(file=out)
    meta = export["meta"]
    print(
        f"replayed {meta['samples_taken']} samples over "
        f"{meta['series_count']} series from {args.file}",
        file=out,
    )
    return 0

"""Terminal dashboard rendering for ``caraml watch``.

Pure string rendering — no cursor control, no dependencies — so the
same functions back three consumers: the live ``caraml watch`` view
(reprinted per sample via the sampler's ``on_sample`` hook), the
non-interactive replay over an exported JSONL file (``make
watch-demo``), and the tests.  Each series becomes one row: name,
labels, latest value and a Unicode block sparkline of the retained
window.
"""

from __future__ import annotations

from repro.errors import ConfigError

#: Eight-level block characters, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Default sparkline width in characters.
DEFAULT_WIDTH = 40

#: Default frame count for replay rendering.
DEFAULT_FRAMES = 8


def sparkline(values: list[float], width: int = DEFAULT_WIDTH) -> str:
    """Render values as a fixed-width block sparkline.

    The series is bucketed to ``width`` cells (bucket mean) and scaled
    to the series min/max; a flat series renders as the lowest block.
    """
    if width < 1:
        raise ConfigError("sparkline width must be at least 1")
    if not values:
        return ""
    data = [float(v) for v in values]
    if len(data) > width:
        bucketed = []
        for i in range(width):
            lo = i * len(data) // width
            hi = max((i + 1) * len(data) // width, lo + 1)
            chunk = data[lo:hi]
            bucketed.append(sum(chunk) / len(chunk))
        data = bucketed
    low = min(data)
    high = max(data)
    if high == low:
        return SPARK_CHARS[0] * len(data)
    span = high - low
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[min(int((v - low) / span * len(SPARK_CHARS)), top)] for v in data
    )


def _series_docs(source) -> list[dict]:
    """Normalise a sampler, loaded export, or series list to dicts."""
    if hasattr(source, "all_series"):
        return [ring.to_dict() for ring in source.all_series()]
    if isinstance(source, dict) and "series" in source:
        return list(source["series"])
    return [doc.to_dict() if hasattr(doc, "to_dict") else dict(doc) for doc in source]


def _row_label(doc: dict) -> str:
    """Row label: series name plus a compact label suffix."""
    labels = doc.get("labels") or {}
    if not labels:
        return doc["name"]
    body = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{doc['name']}[{body}]"


def render_dashboard(
    source,
    *,
    width: int = DEFAULT_WIDTH,
    now_s: float | None = None,
    title: str = "telemetry",
) -> str:
    """Render one dashboard frame over a sampler or loaded export.

    ``source`` may be a :class:`~repro.obs.telemetry.sampler.TelemetrySampler`,
    the dict returned by
    :func:`~repro.obs.telemetry.export.load_timeseries_jsonl`, or a
    plain list of series dicts.  ``now_s`` truncates every series to
    samples at or before that time (replay scrubbing).
    """
    docs = sorted(_series_docs(source), key=_row_label)
    rows = []
    clock = now_s
    for doc in docs:
        times = doc.get("times_s") or []
        values = doc.get("values") or []
        if now_s is not None:
            keep = sum(1 for t in times if t <= now_s + 1e-12)
            times, values = times[:keep], values[:keep]
        elif times and (clock is None or times[-1] > clock):
            clock = times[-1]
        if not values:
            continue
        last = values[-1]
        rows.append(
            f"{_row_label(doc):<42} {last:>10.3f}  {sparkline(values, width)}"
        )
    header = f"== {title} @ t={0.0 if clock is None else clock:.1f}s =="
    if not rows:
        return header + "\n(no samples yet)"
    return "\n".join([header, *rows])


def render_frames(
    source,
    *,
    frames: int = DEFAULT_FRAMES,
    width: int = DEFAULT_WIDTH,
) -> list[str]:
    """Render a replay as ``frames`` dashboard frames over the timeline.

    Frame ``i`` shows every sample up to ``t0 + (i+1)/frames * span`` —
    the non-interactive replay ``caraml watch --replay`` prints them in
    order.
    """
    if frames < 1:
        raise ConfigError("replay needs at least one frame")
    docs = _series_docs(source)
    all_times = [t for doc in docs for t in (doc.get("times_s") or [])]
    if not all_times:
        return [render_dashboard(docs, width=width)]
    t0, t1 = min(all_times), max(all_times)
    span = t1 - t0
    out = []
    for i in range(frames):
        cutoff = t1 if span == 0 else t0 + (i + 1) / frames * span
        out.append(render_dashboard(docs, width=width, now_s=cutoff))
    return out

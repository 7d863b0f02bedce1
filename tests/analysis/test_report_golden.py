"""Golden: the evaluation report and every SVG figure, byte for byte.

``caraml report`` prints every scenario's constants, tables and claim
checks, and ``--figures`` writes the charts; the roofline bench and
``jpwr --plot`` write the other SVGs.  These goldens pin the text of
:func:`build_report` and the bytes of each SVG that
:func:`render_all`, :func:`render_roofline_svg` (every GPU system) and
:func:`render_power_trace` (on a fixed frame) write, so a refactor of
the analysis layer or the chart geometry cannot move them unnoticed.
Regenerate deliberately with::

    pytest tests/analysis/test_report_golden.py --update-goldens

and review the diff like any other code change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.render import render_all, render_power_trace
from repro.analysis.report import build_report
from repro.analysis.roofline import render_roofline_svg
from repro.hardware.systems import SYSTEM_TAGS, get_system
from repro.jpwr.frame import DataFrame

GOLDEN_DIR = Path(__file__).parent / "goldens"
FIGURE_DIR = GOLDEN_DIR / "svg"


def _power_frame() -> DataFrame:
    """A fixed two-device frame: a ramp to full load and back to idle."""
    df = DataFrame(["time_s", "gpu0", "gpu1"])
    for step in range(12):
        load = min(step, 11 - step, 4) / 4
        df.add_row({
            "time_s": step * 0.25,
            "gpu0": 90.0 + 610.0 * load,
            "gpu1": 85.0 + 580.0 * load * 0.9,
        })
    return df


@pytest.fixture(scope="module")
def figures(tmp_path_factory) -> dict[str, str]:
    """Every SVG the analysis layer writes: file name -> text."""
    out = tmp_path_factory.mktemp("figures")
    paths = render_all(out)
    for tag in SYSTEM_TAGS:
        if not get_system(tag).is_ipu_pod:
            paths.append(render_roofline_svg(tag, out / f"roofline_{tag.lower()}.svg"))
    paths.append(render_power_trace(_power_frame(), out / "power_trace.svg"))
    return {p.name: p.read_text(encoding="utf-8") for p in paths}


def test_report_text(update_goldens):
    text = build_report()
    path = GOLDEN_DIR / "report.md"
    if update_goldens:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert path.exists(), f"golden {path.name} missing; generate it with --update-goldens"
    assert text == path.read_text(encoding="utf-8"), (
        "build_report() drifted from its golden; if the change is "
        "intentional, regenerate with --update-goldens and review the diff"
    )


def test_svg_figures(figures, update_goldens):
    if update_goldens:
        FIGURE_DIR.mkdir(parents=True, exist_ok=True)
        for stale in FIGURE_DIR.glob("*.svg"):
            stale.unlink()
        for name, text in figures.items():
            (FIGURE_DIR / name).write_text(text, encoding="utf-8")
    golden = {p.name: p.read_text(encoding="utf-8") for p in FIGURE_DIR.glob("*.svg")}
    assert sorted(figures) == sorted(golden), "the set of rendered figures changed"
    drifted = [name for name in sorted(figures) if figures[name] != golden[name]]
    assert not drifted, (
        f"figures drifted from their goldens: {drifted}; if the change is "
        "intentional, regenerate with --update-goldens and review the diff"
    )

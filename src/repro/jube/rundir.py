"""Persistent JUBE run directories.

Real JUBE materialises every run as a numbered directory
(``*_run/000000/``) that later ``jube continue`` and ``jube result``
invocations address with ``-i last``.  This module provides that
persistence for :class:`~repro.jube.runner.JubeRun`: runs are stored as
JSON (script path, tags, workpackages with parameters/outputs/logs) in
consecutively numbered subdirectories of a benchmark run directory.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import JubeError
from repro.jube.runner import JubeRun
from repro.jube.script import BenchmarkScript, load_script
from repro.jube.steps import Step, Workpackage

_STATE_FILE = "run.json"


def run_directory_for(script_path: str | Path) -> Path:
    """The benchmark run directory of a script (JUBE's ``<name>_run``)."""
    p = Path(script_path)
    return p.parent / f"{p.stem}_run"


def _next_id(run_dir: Path) -> int:
    existing = [
        int(child.name)
        for child in run_dir.iterdir()
        if child.is_dir() and child.name.isdigit()
    ] if run_dir.exists() else []
    return max(existing, default=-1) + 1


def _write_state(run: JubeRun, state_file: Path, script_path: str | Path) -> None:
    """Write ``run`` as the JSON state :func:`load_run` reads."""
    state = {
        "script": str(Path(script_path).resolve()),
        "tags": sorted(run.tags),
        "completed_steps": sorted(run.completed_steps),
        "workpackages": [
            {
                "step": wp.step.name,
                "index": wp.index,
                "parameters": wp.parameters,
                "outputs": wp.outputs,
                "stdout": wp.stdout,
                "done": wp.done,
            }
            for wp in run.workpackages
        ],
    }
    state_file.write_text(json.dumps(state, indent=2))


def save_run(run: JubeRun, script_path: str | Path) -> Path:
    """Persist a run; returns its numbered directory."""
    run_dir = run_directory_for(script_path)
    run_dir.mkdir(parents=True, exist_ok=True)
    run_id = _next_id(run_dir)
    target = run_dir / f"{run_id:06d}"
    target.mkdir()
    _write_state(run, target / _STATE_FILE, script_path)
    return target


def resolve_run_id(run_dir: str | Path, run_id: str = "last") -> Path:
    """Resolve ``-i last`` or a numeric id to a run subdirectory."""
    base = Path(run_dir)
    if not base.exists():
        raise JubeError(f"no run directory {base}")
    candidates = sorted(
        child for child in base.iterdir() if child.is_dir() and child.name.isdigit()
    )
    if not candidates:
        raise JubeError(f"{base} contains no runs")
    if run_id == "last":
        return candidates[-1]
    wanted = f"{int(run_id):06d}"
    for child in candidates:
        if child.name == wanted:
            return child
    raise JubeError(f"run id {run_id!r} not found in {base}")


def load_run(run_path: str | Path) -> tuple[JubeRun, Path]:
    """Load a persisted run; returns it and its script path."""
    state_file = Path(run_path) / _STATE_FILE
    try:
        state = json.loads(state_file.read_text())
    except FileNotFoundError:
        raise JubeError(f"{run_path} is not a JUBE run directory") from None
    except json.JSONDecodeError as exc:
        raise JubeError(f"corrupt run state {state_file}: {exc}") from None
    script_path = Path(state["script"])
    if not script_path.exists():
        raise JubeError(f"script {script_path} of this run no longer exists")
    script: BenchmarkScript = load_script(script_path)
    steps_by_name: dict[str, Step] = {s.name: s for s in script.steps}
    run = JubeRun(script=script, tags=frozenset(state["tags"]))
    run.completed_steps = set(state["completed_steps"])
    for raw in state["workpackages"]:
        try:
            step = steps_by_name[raw["step"]]
        except KeyError:
            raise JubeError(
                f"run references step {raw['step']!r} missing from the script"
            ) from None
        wp = Workpackage(
            step=step,
            parameters=dict(raw["parameters"]),
            index=int(raw["index"]),
            done=bool(raw["done"]),
        )
        wp.outputs = dict(raw["outputs"])
        wp.stdout = raw.get("stdout", "")
        run.workpackages.append(wp)
    return run, script_path


def update_run(run: JubeRun, run_path: str | Path, script_path: str | Path) -> None:
    """Overwrite a persisted run's state in place (after continue)."""
    state_file = Path(run_path) / _STATE_FILE
    if not state_file.exists():
        raise JubeError(f"{run_path} is not a JUBE run directory")
    _write_state(run, state_file, script_path)

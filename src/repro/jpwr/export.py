"""Result export for jpwr (``--df-out``, ``--df-filetype``, ``--df-suffix``).

The tool works per-node: for multi-node (MPI) applications every rank
writes its own files, distinguished by a suffix.  The suffix string may
contain ``%q{VARIABLE}`` statements that are substituted from the
environment at write time, so ``--df-suffix "%q{SLURM_PROCID}"`` tags
files with the MPI rank (paper §III-A4).
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from repro.errors import MeasurementError
from repro.jpwr.frame import DataFrame

_SUFFIX_VAR_RE = re.compile(r"%q\{([A-Za-z_][A-Za-z0-9_]*)\}")

#: Supported --df-filetype values.  The real tool writes HDF5 (.h5) or
#: CSV; without an HDF5 library we write JSON under the .h5 name's role.
FILETYPES = ("csv", "json")


def expand_suffix(suffix: str, env: dict[str, str] | None = None) -> str:
    """Expand ``%q{VAR}`` statements in a suffix from the environment.

    Raises
    ------
    MeasurementError
        When a referenced variable is not set (silently writing
        colliding files would reproduce the race the feature exists to
        avoid).
    """
    environment = env if env is not None else dict(os.environ)

    def _sub(match: re.Match) -> str:
        var = match.group(1)
        try:
            return environment[var]
        except KeyError:
            raise MeasurementError(
                f"--df-suffix references unset variable {var!r}"
            ) from None

    return _SUFFIX_VAR_RE.sub(_sub, suffix)


def write_frame(
    df: DataFrame,
    out_dir: str | Path,
    stem: str,
    filetype: str,
    *,
    suffix: str = "",
    env: dict[str, str] | None = None,
) -> Path:
    """Write one DataFrame to ``out_dir/<stem><suffix>.<filetype>``."""
    if filetype not in FILETYPES:
        raise MeasurementError(
            f"unsupported --df-filetype {filetype!r}; supported: {FILETYPES}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    expanded = expand_suffix(suffix, env) if suffix else ""
    path = out / f"{stem}{expanded}.{filetype}"
    if filetype == "csv":
        path.write_text(df.to_csv())
    else:
        path.write_text(df.to_json())
    return path


def read_frame(path: str | Path) -> DataFrame:
    """Read a frame written by :func:`write_frame` (by extension)."""
    p = Path(path)
    text = p.read_text()
    if p.suffix == ".csv":
        return DataFrame.from_csv(text)
    if p.suffix == ".json":
        return DataFrame.from_json(text)
    raise MeasurementError(f"unknown frame filetype {p.suffix!r}")


def export_measurement(
    power_df: DataFrame,
    energy_df: DataFrame,
    additional: dict[str, DataFrame],
    out_dir: str | Path,
    filetype: str,
    *,
    suffix: str = "",
) -> list[Path]:
    """Write all measurement artefacts of one scope; returns the paths.

    Files written: ``power<suffix>``, ``energy<suffix>`` and one
    ``additional_<key><suffix>`` per additional-data frame; the suffix
    expands against the process environment.
    """
    paths = [
        write_frame(power_df, out_dir, "power", filetype, suffix=suffix),
        write_frame(energy_df, out_dir, "energy", filetype, suffix=suffix),
    ]
    for key, frame in additional.items():
        safe = re.sub(r"[^A-Za-z0-9_-]", "_", key)
        paths.append(
            write_frame(frame, out_dir, f"additional_{safe}", filetype, suffix=suffix)
        )
    return paths

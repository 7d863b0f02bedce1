"""User-registered custom systems.

CARAML's pitch is letting *users* "evaluate the out-of-the-box
performance of accelerators with minimal code adaptions" (paper §II-D);
this module lets a downstream user add their own node configuration
(and a calibration entry for it) to the registry so the whole stack --
benchmarks, JUBE tags, figures, heatmaps -- works on it unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.engine.calibration import CALIBRATIONS, SystemCalibration
from repro.errors import HardwareError
from repro.hardware.node import NodeSpec
from repro.hardware.systems import SYSTEMS


def register_system(
    node: NodeSpec, calibration: SystemCalibration, *, replace: bool = False
) -> None:
    """Add a node (keyed by its JUBE tag) plus its calibration.

    Raises
    ------
    HardwareError
        When the tag is already registered and ``replace`` is False
        (the seven paper systems cannot be silently shadowed).
    """
    tag = node.jube_tag
    if tag in SYSTEMS and not replace:
        raise HardwareError(
            f"system tag {tag!r} already registered; pass replace=True to override"
        )
    SYSTEMS[tag] = node
    CALIBRATIONS[tag] = calibration


@contextmanager
def temporary_system(node: NodeSpec, calibration: SystemCalibration):
    """Context manager registering a system for the enclosed block.

    Restores whatever (if anything) the tag pointed to before --
    convenient in tests and exploratory notebooks.
    """
    tag = node.jube_tag
    previous_node = SYSTEMS.get(tag)
    previous_cal = CALIBRATIONS.get(tag)
    register_system(node, calibration, replace=True)
    try:
        yield node
    finally:
        if previous_node is not None:
            SYSTEMS[tag] = previous_node
        else:
            del SYSTEMS[tag]
        if previous_cal is not None:
            CALIBRATIONS[tag] = previous_cal
        else:
            CALIBRATIONS.pop(tag, None)

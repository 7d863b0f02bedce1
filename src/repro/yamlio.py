"""YAML parsing for JUBE scripts, campaign and search specs, fault plans.

``yaml.safe_load`` runs PyYAML's pure-Python parser.  When PyYAML was
built against libyaml, its C safe loader builds the same documents
several times faster, so every YAML input of the package goes through
:func:`safe_load` here.
"""

from __future__ import annotations

import yaml

# libyaml's safe loader when PyYAML has it, the pure-Python one otherwise.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def safe_load(text: str):
    """Parse one YAML document as ``yaml.safe_load`` does.

    Raises :class:`yaml.YAMLError` on malformed input, under either
    loader.
    """
    return yaml.load(text, Loader=_LOADER)

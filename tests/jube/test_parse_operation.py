"""``parse_operation`` splits every command into ``shlex.split``'s tokens.

A command of printable ASCII without a quote or a backslash is split on
spaces; every other command goes through shlex.  Both give shlex's
tokens, on the shipped templates, on every command they expand to, and
on strings built from the characters where the two splits could part.
"""

from __future__ import annotations

import shlex

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.spec import BUILTIN_KINDS
from repro.core.suite import SHIPPED_SCRIPTS, script_path
from repro.errors import JubeError
from repro.hardware.systems import SYSTEM_TAGS
from repro.jube.parameters import expand_parameter_space, referenced, substitute
from repro.jube.runner import _tokens, parse_operation
from repro.jube.script import load_script


def _script_commands():
    """Every ``do`` template of the shipped scripts, raw and substituted
    over each step's parameter space under every system tag."""
    commands = set()
    for name in SHIPPED_SCRIPTS:
        script = load_script(script_path(name))
        for step in script.steps:
            sets = [script.parameter_set(s) for s in step.parameter_sets]
            for template in step.operations:
                commands.add(template)
                for tag in ("", *SYSTEM_TAGS):
                    for params in expand_parameter_space(sets, [tag] if tag else []):
                        try:
                            commands.add(substitute(template, params))
                        except JubeError:
                            continue  # a tag-guarded parameter this tag lacks
    return sorted(commands)


def _campaign_commands():
    """Every built-in campaign kind's template, raw and with its defaults
    (an axis the kind has no default for takes ``8``)."""
    commands = []
    for templates, defaults in BUILTIN_KINDS.values():
        for template in templates:
            commands.append(template)
            values = {name: "8" for name in referenced(template)}
            values.update(defaults)
            for tag in SYSTEM_TAGS:
                commands.append(substitute(template, {**values, "system": tag}))
    return commands


SCRIPT_COMMANDS = _script_commands()
CAMPAIGN_COMMANDS = _campaign_commands()


def _outcome(split, command):
    """The tokens, or the error type (shlex rejects an open quote)."""
    try:
        return split(command)
    except ValueError as exc:
        return type(exc)


def test_shipped_scripts_expand_to_substituted_commands():
    substituted = [c for c in SCRIPT_COMMANDS if "$" not in c and "--" in c]
    assert {c.split()[0] for c in substituted} >= {"llm_train", "resnet_train"}


@pytest.mark.parametrize("command", SCRIPT_COMMANDS + CAMPAIGN_COMMANDS)
def test_shipped_commands_split_as_shlex(command):
    assert _tokens(command) == shlex.split(command)
    name, args = parse_operation(command)
    tokens = shlex.split(command)
    assert name == tokens[0]
    assert list(args) == [t[2:] for t in tokens[1:] if t.startswith("--")]


#: Characters where splitting on spaces and shlex could part: quoting,
#: escapes, comment markers and whitespace that shlex keeps inside a
#: word or that str.split would split on.
_AWKWARD = ["'", '"', "\\", "#", "\t", "\n", "\r", "\x0b", "\x0c", "\xa0", "\u2003", " "]

_commands = st.text(
    alphabet=st.sampled_from(_AWKWARD + list("ab-=$.,:/01")), max_size=40
)


@settings(max_examples=400, deadline=None)
@given(_commands)
def test_awkward_strings_split_as_shlex(command):
    assert _outcome(_tokens, command) == _outcome(shlex.split, command)


_words = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E), min_size=1, max_size=8
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_words, max_size=6),
    st.lists(st.integers(min_value=1, max_value=4), min_size=7, max_size=7),
)
def test_space_runs_split_as_shlex(words, gaps):
    """Leading, trailing and repeated spaces around printable words."""
    command = " " * (gaps[0] - 1)
    for word, gap in zip(words, gaps[1:]):
        command += word + " " * gap
    assert _outcome(_tokens, command) == _outcome(shlex.split, command)


@pytest.mark.parametrize("command", ["", " ", "   ", "\t", " \n ", "\r\n \t"])
def test_empty_or_blank_command_is_a_jube_error(command):
    with pytest.raises(JubeError, match="empty operation command"):
        parse_operation(command)


def test_quoted_values_still_go_through_shlex():
    name, args = parse_operation("op --label 'two words' --path a\\ b")
    assert name == "op"
    assert args == {"label": "two words", "path": "a b"}

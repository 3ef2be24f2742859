import argparse
import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import purbounds
from purbounds.cli import build_parser

# __main__ runs the CLI on import
MODULES = [info.name for info in pkgutil.iter_modules(purbounds.__path__) if not info.name.startswith("_")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"purbounds.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_reexports_only_module_exports():
    exported = set()
    for name in MODULES:
        exported.update(importlib.import_module(f"purbounds.{name}").__all__)
    public = {k for k, v in vars(purbounds).items() if not k.startswith("_") and not inspect.ismodule(v)}
    assert sorted(public - exported) == []


def _readme_blocks(language="python"):
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"```{language}\n(.*?)```", text, flags=re.S)


def _readme_imports():
    """Names the README's Python blocks import from the package itself."""
    names = set()
    for block in _readme_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "purbounds":
                names.update(alias.name for alias in node.names)
    return names


def test_readme_lists_exactly_the_package_api():
    documented = _readme_imports()
    assert sorted(name for name in documented if not hasattr(purbounds, name)) == []
    public = {k for k, v in vars(purbounds).items() if not k.startswith("_") and not inspect.ismodule(v)}
    assert sorted(public ^ documented) == []


# `expression  # v1, v2, ...`: a line whose comment opens with the values the expression reads
_COMMENTED_VALUES = re.compile(r"^(?P<expr>[^#]*?)\s+#\s*(?P<values>(?:-?[\d.]+|True|False)(?:,\s*(?:-?[\d.]+|True|False))*)")


def test_readme_library_example_reads_its_commented_values():
    (block,) = [block for block in _readme_blocks() if "bound_report(" in block]
    namespace = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        match = _COMMENTED_VALUES.match(line)
        if match is None:
            continue
        got = eval(match["expr"], namespace)
        got = got if isinstance(got, tuple) else (got,)
        for value, expected in zip(got, ast.literal_eval(match["values"] + ","), strict=True):
            if isinstance(expected, bool):
                assert value is expected, line
            else:
                assert abs(value - expected) <= 1e-12, line
        checked.append(match["expr"].strip())
    assert checked == ["rep.t1, rep.t2", "rep.l1, rep.l2", "rep.mpur", "rep.hrsur_trivial"]


def test_readme_cli_block_names_exactly_the_parser_options():
    # each `purbounds <command>` line of the README's shell blocks passes every option of its subcommand
    documented = {}
    for block in _readme_blocks("sh"):
        for line in block.splitlines():
            words = line.split("#")[0].split()
            if words[:1] == ["purbounds"]:
                documented[words[1]] = {word for word in words[2:] if word.startswith("--")}
    (commands,) = [action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    options = {
        name: {option for action in sub._actions for option in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert documented == options

import argparse
import ast
import builtins
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import purbounds
from purbounds import cli

# __main__ runs the CLI on import
MODULES = [info.name for info in pkgutil.iter_modules(purbounds.__path__) if not info.name.startswith("_")]

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"purbounds.{name}")
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


def test_package_reexports_only_module_exports():
    exported = set()
    for name in MODULES:
        exported.update(importlib.import_module(f"purbounds.{name}").__all__)
    public = {k for k in dir(purbounds) if not k.startswith("_") and not inspect.ismodule(getattr(purbounds, k))}
    assert sorted(public - exported) == []


def _readme_blocks(language="python"):
    text = README.read_text(encoding="utf-8")
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
    public = {k for k in dir(purbounds) if not k.startswith("_") and not inspect.ismodule(getattr(purbounds, k))}
    assert sorted(public ^ documented) == []


# run in a fresh interpreter, so that no test has touched a lazy name yet
_FRESH_NAMESPACE = """
import json, sys
import purbounds
loaded = sorted(name for name in ("instances", "verify", "montecarlo") if f"purbounds.{name}" in sys.modules)
star = {}
exec("from purbounds import *", star)
star.pop("__builtins__")
print(json.dumps({
    "loaded_on_import": loaded,
    "star": sorted(star),
    "owners": {name: getattr(value, "__module__", None) for name, value in star.items()},
}))
"""


@pytest.fixture(scope="module")
def fresh_namespace():
    # the subprocess imports the same package as this process, installed or not
    package_parent = str(Path(purbounds.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (package_parent, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _FRESH_NAMESPACE], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_lazy_names_load_their_module_on_first_access(fresh_namespace):
    # importing the package loads none of the three; every README name then resolves to its module's object
    assert fresh_namespace["loaded_on_import"] == []
    for name, owner in fresh_namespace["owners"].items():
        assert getattr(importlib.import_module(owner), name) is getattr(purbounds, name)


def test_star_import_binds_exactly_the_readme_api(fresh_namespace):
    assert fresh_namespace["star"] == sorted(_readme_imports()) == sorted(purbounds.__all__)


def test_unknown_attribute_raises_the_standard_error():
    with pytest.raises(AttributeError, match=r"^module 'purbounds' has no attribute 'no_such_name'$"):
        purbounds.no_such_name


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
    (commands,) = [action for action in cli.build_parser()._actions if isinstance(action, argparse._SubParsersAction)]
    options = {
        name: {option for action in sub._actions for option in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert documented == options


class TestErrorContract:
    """Every `raise` in the package (43 sites), by module, class and message template (the `ast.unparse`
    of the raise's first argument), and the exit code `cli.main` gives each class. A new, moved,
    deleted or reworded raise site is an edit of RAISE_SITES. The one site of class `error`, the
    unit-vector rule's, raises the class each caller of `_unit_rows` passes: PASSED_ERRORS."""

    RAISE_SITES = [
        ("__init__", "AttributeError", "f'module {__name__!r} has no attribute {name!r}'"),
        ("bounds", "OrthogonalityError", "f'|<state|xi_perp>| = {overlap:.3e} exceeds {TOL_EIG:.1e}'"),
        ("bounds", "ValueError", "'xi_perp must be finite'"),
        ("bounds", "ValueError", 'f"which must be \'l1\' or \'l2\', got {which!r}"'),
        (
            "bounds",
            "ValueError",
            'f"xi_perp must be a 1-D array{(\' or a stack of rows\' if stack else \'\')}, got shape {vec.shape}"',
        ),
        (
            "bounds",
            "ValueError",
            "f'operand scale too large: Var(A) Var(B) = {prod_var:.3e} exceeds {_MAX_VAR_PRODUCT:.3e} "
            "(|A|_F = {k.norms[0]:.3e}, |B|_F = {k.norms[1]:.3e})'",
        ),
        ("bounds", "ValueError", "f'sign must be +1 or -1, got {sign}'"),
        ("bounds", "ValueError", "f'unknown candidate kind {self.kind!r}'"),
        ("cli", "OSError", "f'cannot read {path}: {exc}'"),
        ("cli", "OSError", "f'cannot write {args.out}: {exc}'"),
        ("cli", "ValueError", "f'--dims must be a comma-separated integer list, got {args.dims!r}'"),
        ("cli", "ValueError", "f'invalid instance {args.file}: {exc}'"),
        ("cli", "ValueError", "f'invalid instance {path}: {exc}'"),
        ("cli", "ValueError", "f'malformed JSON in {path}: {exc}'"),
        ("instances", "InstanceFormatError", "'instance file must contain a JSON object'"),
        ("instances", "InstanceFormatError", "f'missing required field {key!r}'"),
        ("instances", "InstanceFormatError", "f'{label} is not Hermitian: {exc}'"),
        ("instances", "InstanceFormatError", "f'{label}: {exc}'"),
        ("instances", "InstanceFormatError", "f'{name}: expected a [re, im] pair, got {obj!r}'"),
        ("instances", "InstanceFormatError", "f'{name}: expected a {size} array of [re, im] pairs'"),
        ("instances", "InstanceFormatError", "f'{name}: {exc}'"),
        ("instances", "InstanceFormatError", "str(exc)"),
        ("montecarlo", "ValueError", "'probabilities must be nonnegative'"),
        ("montecarlo", "ValueError", "'values and probabilities must be matching nonempty arrays'"),
        ("montecarlo", "ValueError", "f'probabilities sum to {total!r}, not 1'"),
        ("montecarlo", "ValueError", "f'sample variance leaves the double range (largest |deviation| {peak:.3e})'"),
        ("quantum", "DimensionMismatchError", "f'dimension mismatch: {dims}'"),
        ("quantum", "EigensolverError", "f'eigendecomposition residual {residual:.3e} above tolerance'"),
        ("quantum", "EigensolverError", "f'eigensolver failed to converge: {exc}'"),
        ("quantum", "HermiticityError", "f'Hermiticity defect {defect:.3e} exceeds {TOL_HERM:.1e} * {scale:.3e}'"),
        ("quantum", "NullVectorError", "'cannot normalize a null vector'"),
        ("quantum", "ValueError", "'observable must be finite'"),
        ("quantum", "ValueError", "f'basis index {index} outside [0, {dim})'"),
        ("quantum", "ValueError", "f'dimension {dim} outside supported range [2, {MAX_DIM}]'"),
        ("quantum", "ValueError", "f'observable entry modulus {peak:.3e} exceeds {_MAX_ENTRY:.3e}'"),
        ("quantum", "ValueError", "f'observable must be a square matrix, got shape {mat.shape}'"),
        ("quantum", "ValueError", "f'{name} must be a 1-D array, got shape {vec.shape}'"),
        ("quantum", "ValueError", "f'{name} must be an integer, got {value!r}'"),
        ("quantum", "ValueError", "f'{name} must be at least {low}, got {value}'"),
        ("quantum", "ValueError", "f'{name} must be finite'"),
        ("quantum", "error", "f'{name} norm {off!r} differs from 1 by more than {RENORM_WINDOW}'"),
        ("verify", "ValueError", "'dims must be nonempty'"),
        ("verify", "ValueError", "f'tol must be a positive finite real number, got {tol!r}'"),
    ]

    # the third argument of each `_unit_rows` call in the package
    PASSED_ERRORS = ["NormalizationError", "OrthogonalityError"]

    # None: raised only by the package's lazy __getattr__, which no command reaches
    EXIT_CODES = {
        "AttributeError": None,
        "OSError": cli.EXIT_IO,
        "ValueError": cli.EXIT_VALIDATION,
        "DimensionMismatchError": cli.EXIT_VALIDATION,
        "HermiticityError": cli.EXIT_VALIDATION,
        "InstanceFormatError": cli.EXIT_VALIDATION,
        "NormalizationError": cli.EXIT_VALIDATION,
        "NullVectorError": cli.EXIT_VALIDATION,
        "OrthogonalityError": cli.EXIT_VALIDATION,
        "EigensolverError": cli.EXIT_SOLVER,
    }

    def test_raise_sites_match_the_table(self):
        sites, passed = [], []
        for path in sorted(Path(purbounds.__file__).resolve().parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Raise):
                    # every site raises a call with its message first
                    sites.append((path.stem, ast.unparse(node.exc.func), ast.unparse(node.exc.args[0])))
                elif isinstance(node, ast.Call) and ast.unparse(node.func) == "_unit_rows":
                    passed.append(ast.unparse(node.args[2]))
        assert sorted(sites) == self.RAISE_SITES
        assert sorted(passed) == self.PASSED_ERRORS

    def test_each_class_has_one_exit_code(self, tmp_path, monkeypatch, capsys):
        assert set(self.EXIT_CODES) == {name for _, name, _ in self.RAISE_SITES} - {"error"} | set(self.PASSED_ERRORS)
        owners = [builtins, *(importlib.import_module(f"purbounds.{name}") for name in MODULES)]
        for name, code in self.EXIT_CODES.items():
            (cls,) = {getattr(owner, name) for owner in owners if hasattr(owner, name)}

            def fail(points):
                raise cls(f"{name} raised")

            monkeypatch.setattr(cli, "qubit_sweep", fail)
            argv = ["sweep", "--out", str(tmp_path / "x.csv")]
            if code is None:
                # not mapped to an exit code: it would surface as a traceback
                with pytest.raises(cls):
                    cli.main(argv)
                continue
            assert cli.main(argv) == code, name
            assert capsys.readouterr() == ("", f"error: {name} raised\n")

    def test_readme_names_each_exit_code(self):
        (paragraph,) = [par for par in README.read_text(encoding="utf-8").split("\n\n") if par.startswith("Exit codes")]
        paragraph = " ".join(paragraph.split())
        names = [name for name in cli.__all__ if name.startswith("EXIT_")]
        assert names == ["EXIT_OK", "EXIT_IO", "EXIT_VALIDATION", "EXIT_VIOLATION", "EXIT_SOLVER"]
        for name in names:
            assert re.search(rf"`{getattr(cli, name)}` [^`]+ \(`{name}`\)", paragraph), name

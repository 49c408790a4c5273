import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import leakscope

SRC = Path(__file__).resolve().parent.parent / "src"

# heavy stdlib modules that every CLI run would pay for at start-up
SLOW_STDLIB = {"dataclasses", "inspect", "statistics", "fractions", "decimal"}

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(leakscope.__path__))

# the leakscope modules each command loads: the forward solve, and the layers
# the command runs on top of it
SOLVE = {"", "cli", "scenario", "headloss", "hydraulics"}
COMMAND_MODULES = {
    ("simulate", "example1"): SOLVE,
    ("check", "example1"): SOLVE,
    ("candidates", "example1"): SOLVE | {"localization"},
    ("residual-sweep", "example2"): SOLVE | {"localization"},
    ("isolate", "example1"): SOLVE | {"localization", "isolation"},
    ("leakfit", "example3"): SOLVE | {"localization", "isolation"},
    ("confusion", "example2"): SOLVE | {"localization", "sensitivity"},
}


def _python(code: str, *flags: str) -> str:
    """Standard output of `code` run in a fresh interpreter started with `flags`."""
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


def _modules_loaded_by(statement: str, *flags: str) -> set[str]:
    """Modules that `statement` newly loads in a fresh interpreter started
    with `flags`; the baseline is taken first, since `site` may already have
    loaded some."""
    code = (
        "import json, sys; before = set(sys.modules); "
        f"{statement}; print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    return set(json.loads(_python(code, *flags)))


def test_import_loads_no_numpy():
    # leakscope has no runtime dependencies; numpy must not creep back in
    assert "numpy" not in _modules_loaded_by("import leakscope, leakscope.cli")


def test_cli_import_loads_no_slow_stdlib():
    loaded = _modules_loaded_by("import leakscope.cli")
    assert "leakscope.cli" in loaded
    assert not loaded & SLOW_STDLIB


def test_cli_import_loads_no_typing_without_site():
    # `site` may import typing and pathlib itself and so hide them from the
    # test above; -S starts the interpreter without `site`
    loaded = _modules_loaded_by("import leakscope.cli", "-S")
    assert "leakscope.cli" in loaded
    assert not loaded & {"typing", "pathlib"}


def test_package_import_loads_no_submodule():
    loaded = _modules_loaded_by("import leakscope")
    assert {m for m in loaded if m.startswith("leakscope")} == {"leakscope"}


@pytest.mark.parametrize("command,scenario", sorted(COMMAND_MODULES))
def test_command_loads_only_its_modules(command, scenario, tmp_path):
    argv = [command, "--scenario", str(leakscope.bundled_scenario(scenario)),
            "--out", str(tmp_path)]
    loaded = _modules_loaded_by(f"from leakscope.cli import main; assert main({argv!r}) == 0")
    want = {"leakscope" + (f".{m}" if m else "") for m in COMMAND_MODULES[command, scenario]}
    assert {m for m in loaded if m.startswith("leakscope")} == want


# -- the package's lazy exports (PEP 562), each in a fresh interpreter ----------


def test_every_submodule_resolves_after_a_bare_import():
    code = (
        "import json, leakscope; "
        f"print(json.dumps([getattr(leakscope, m).__name__ for m in {SUBMODULES!r}]))"
    )
    assert json.loads(_python(code)) == [f"leakscope.{m}" for m in SUBMODULES]


def test_lazy_submodule_table_names_exactly_the_module_files():
    # a stale entry would make dir(leakscope) list a module that fails to import
    assert leakscope._SUBMODULES == set(SUBMODULES)


def test_star_import_binds_every_name_in_all():
    code = (
        "import json; ns = {}; exec('from leakscope import *', ns); import leakscope; "
        "print(json.dumps([[n, n in ns and ns[n] is getattr(leakscope, n), n in dir(leakscope)]"
        " for n in leakscope.__all__]))"
    )
    rows = json.loads(_python(code))
    assert {name for name, _, _ in rows} >= {"measure", "parse_scenario", "bundled_scenario"}
    assert [name for name, bound, listed in rows if not (bound and listed)] == []


def test_dir_lists_every_export_and_submodule_and_loads_none():
    code = (
        "import json, sys, leakscope; names = dir(leakscope); "
        "print(json.dumps([names, leakscope.__all__, [m for m in sys.modules if 'leakscope' in m]]))"
    )
    names, exported, loaded = json.loads(_python(code))
    assert set(exported) | set(SUBMODULES) <= set(names)
    assert names == sorted(names)
    assert loaded == ["leakscope"]


def test_unknown_name_raises_attribute_error_naming_it():
    code = (
        "import leakscope\n"
        "try:\n    leakscope.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)"
    )
    assert "no_such_name" in _python(code)


def test_a_used_name_is_cached_in_the_package_globals():
    # hot loops look names up in the module dict and never reach __getattr__
    code = (
        "import leakscope; before = 'measure' in vars(leakscope); m = leakscope.measure; "
        "print(before, vars(leakscope)['measure'] is m is leakscope.hydraulics.measure)"
    )
    assert _python(code).split() == ["False", "True"]


def test_a_module_loaded_during_a_swap_keeps_no_copy_of_it():
    # bench/tracing.py swaps functions in the loaded modules and later puts
    # them back; a module that loads in between must not keep the swap
    code = (
        "import sys, leakscope.localization as loc; original = loc.all_candidates; "
        "loc.all_candidates = swapped = lambda *a: original(*a); "
        "import leakscope.isolation, leakscope.sensitivity, leakscope.cli; "
        "loc.all_candidates = original; "
        "print([n for n, m in sys.modules.items() if n.startswith('leakscope') "
        "for v in vars(m).values() if v is swapped])"
    )
    assert _python(code).strip() == "[]"


# -- where the loss laws' formulas live -------------------------------------------

LAW_CLASSES = {"PowerLaw", "QuadraticPlusLinear"}
LAW_FIELDS = {"c", "gamma", "_c", "_gamma"}


def _law_knowledge(tree: ast.AST) -> tuple[set[str], set[str]]:
    """The law class names a module's code names, and the law fields it reads,
    by attribute or by a getattr-like call with a literal name."""
    names, fields = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.update((node.name, node.asname))
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            fields.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.args[1:]:
            if node.func.id in {"getattr", "hasattr"} and isinstance(node.args[1], ast.Constant):
                fields.add(node.args[1].value)
    return names & LAW_CLASSES, fields & LAW_FIELDS


def test_law_formulas_live_only_in_headloss():
    # every formula of a law is a method of its class in headloss, so no other
    # module tests a law's class or reads its constants; scenario's type table
    # and the package's exports name the classes only to build and export them
    modules = sorted((SRC / "leakscope").glob("*.py"))
    assert len(modules) == len(SUBMODULES) + 1  # every submodule and __init__
    found = {}
    for path in modules:
        classes, fields = _law_knowledge(ast.parse(path.read_text(), str(path)))
        if path.name in {"headloss.py", "scenario.py", "__init__.py"}:
            classes = set()
        if path.name == "headloss.py":
            fields = set()
        if classes or fields:
            found[path.name] = sorted(classes | fields)
    assert found == {}

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# heavy stdlib modules that every CLI run would pay for at start-up
SLOW_STDLIB = {"dataclasses", "inspect", "statistics", "fractions", "decimal"}


def _modules_loaded_by(statement: str, *flags: str) -> set[str]:
    """Modules that `statement` newly loads in a fresh interpreter started
    with `flags`; the baseline is taken first, since `site` may already have
    loaded some."""
    code = (
        "import json, sys; before = set(sys.modules); "
        f"{statement}; print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(json.loads(out.stdout))


def test_import_loads_no_numpy():
    # leakscope has no runtime dependencies; numpy must not creep back in
    assert "numpy" not in _modules_loaded_by("import leakscope, leakscope.cli")


def test_cli_import_loads_no_slow_stdlib():
    loaded = _modules_loaded_by("import leakscope.cli")
    assert "leakscope.cli" in loaded
    assert not loaded & SLOW_STDLIB


def test_cli_import_loads_no_typing_without_site():
    # `site` may import typing itself and so hide it from the test above;
    # -S starts the interpreter without `site`
    loaded = _modules_loaded_by("import leakscope.cli", "-S")
    assert "leakscope.cli" in loaded
    assert "typing" not in loaded

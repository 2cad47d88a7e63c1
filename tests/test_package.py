"""Package surface: a NumPy-free command-line import, and NumPy as the only
third-party dependency."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_and_config_import_without_numpy():
    # --threads only takes effect if numpy has not loaded before it is applied
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import latseg, latseg.cli, latseg.config\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_package_imports_only_stdlib_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "latseg"}
    for path in sorted((SRC / "latseg").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports stay inside the package
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"

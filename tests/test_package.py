"""Package surface: a NumPy-free command-line import, NumPy as the only
third-party dependency, and the functions the benchmark tracer hooks by name."""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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


def test_benchmark_tracer_hooks_exist_and_are_restored():
    # perfbench/tracing.py patches latseg functions by name: a rename or a
    # removal makes entering the tracer fail here
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer() as tracer:
        patched = list(tracer._patched)
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patched)
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"

"""Package surface: lazy exports and a NumPy-free command-line import."""

import subprocess
import sys
from pathlib import Path

import latseg

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


def test_every_exported_name_resolves():
    for name in latseg.__all__:
        assert getattr(latseg, name) is not None, name

import json
import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args, key, count",
    [
        ("band_convergence.py", ["--max-level", "4"], "levels", 4),
        ("ids_modulus.py", ["--depth", "4", "--size", "500"], "scans", 3),
    ],
)
def test_script_smoke(monkeypatch, capsys, script, args, key, count):
    monkeypatch.setattr(sys, "argv", [script, *args])
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    doc = json.loads(capsys.readouterr().out)
    assert doc["chain"] == {"prefix": [2], "rule": [2]}
    assert len(doc[key]) == count

"""Import hygiene: the heavy optional modules load only on the paths that use them."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

LAZY = ("jsonschema", "concurrent.futures.process", "multiprocessing")

SCRIPT = f"""
import contextlib, io, sys

lazy = {LAZY!r}

def loaded():
    return sorted(m for m in lazy if m in sys.modules)

import parkfun
assert loaded() == [], ("import parkfun", loaded())

import parkfun.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = parkfun.cli.main(["park", "classical", "-p", "3,1,1,2"])
assert code == 0, code
assert loaded() == [], ("park classical", loaded())

# The sweep is serial for any --workers value: no process pool is loaded.
with contextlib.redirect_stdout(io.StringIO()):
    code = parkfun.cli.main(["count", "fpf", "-g", "cycle:4", "--brute", "--workers", "2"])
assert code == 0, code
assert loaded() == [], ("count --workers 2", loaded())

try:
    parkfun.validate_report({{"command": "x"}})
except Exception as e:
    import jsonschema
    assert isinstance(e, jsonschema.ValidationError), type(e)
else:
    raise AssertionError("an invalid report was accepted")
print("ok")
"""


def test_heavy_modules_load_only_when_used():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"

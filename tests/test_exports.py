"""The package's public names stay importable, listed once, in order."""

import os
import subprocess
import sys
from pathlib import Path

import geosent


def test_every_export_resolves_once_in_sorted_order():
    names = geosent.__all__
    assert [name for name in names if not hasattr(geosent, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_import_loads_neither_elementtree_nor_multiprocessing():
    # renders are written as text, and a pool imports multiprocessing when it opens
    code = ("import sys, geosent, geosent.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('xml', 'multiprocessing')))")
    env = dict(os.environ, PYTHONPATH=str(Path(geosent.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"

"""The package's public names stay importable, listed once, in order, and only
store opens the files geosent reads."""

import ast
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


def _reads(module: Path) -> list[str]:
    """Each call in module that opens a file for reading, as its source text."""
    source = module.read_text(encoding="utf-8")
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "open":  # open(path, mode) or path.open(mode)
            args = node.args[1:] if isinstance(node.func, ast.Name) else node.args
            mode = args[0] if args else next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
            writes = isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax")
            if not writes:
                found.append(ast.get_source_segment(source, node))
        elif name in ("read_text", "read_bytes"):
            found.append(ast.get_source_segment(source, node))
    return found


def test_only_store_opens_a_file_for_reading():
    # every other module reads through store (map_blocks, _score_blocks, _read_text),
    # save the stream collect stores as it comes
    package = Path(geosent.__file__).parent
    reads = {module.name: _reads(module) for module in sorted(package.glob("*.py"))
             if module.name != "store.py"}
    assert {name: found for name, found in reads.items() if found} == {
        "cli.py": ['open(args.input, "rb")']}
    assert 'open(path, "rb")' in _reads(package / "store.py")  # _read_text's

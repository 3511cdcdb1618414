"""The package's public names stay importable, listed once, in order, and only
store opens the files geosent reads or appends to."""

import ast
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geosent
from geosent import store
from geosent.ingest import collect


def test_every_export_resolves_once_in_sorted_order():
    names = geosent.__all__
    assert [name for name in names if not hasattr(geosent, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_import_loads_neither_elementtree_nor_multiprocessing():
    # renders are written as text, and a pool imports multiprocessing and concurrent when it opens
    code = ("import sys, geosent, geosent.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('xml', 'multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(Path(geosent.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def _estimator_names(module: Path) -> set[str]:
    """The names module takes from estimator: imported from it, or read off it."""
    names = set()
    for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "estimator":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "estimator":
            names.add(node.attr)
    return names


def test_only_estimator_runs_a_scan():
    # estimator plans, folds, merges and scores every scan; ingest supplies only the rows
    package = Path(geosent.__file__).parent
    taken = {module.name: _estimator_names(module) for module in sorted(package.glob("*.py"))
             if module.name != "estimator.py"}
    helpers = {"_plan", "_merge_cells", "_score_rows", "_fold_rows"}
    assert {name: found & helpers for name, found in taken.items() if found & helpers} == {}
    assert {name for name in taken["ingest.py"] if name.startswith("_")} == {"_scan"}


def _opens(module: Path) -> list[tuple[str, str]]:
    """Each call in module that opens a file, as its source text and its mode
    ("r" for read_text and read_bytes, "?" where the mode is not a constant)."""
    source = module.read_text(encoding="utf-8")
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name == "open":  # open(path, mode) or path.open(mode)
            args = node.args[1:] if isinstance(node.func, ast.Name) else node.args
            mode = args[0] if args else next((kw.value for kw in node.keywords if kw.arg == "mode"),
                                             ast.Constant("r"))
            mode = str(mode.value) if isinstance(mode, ast.Constant) else "?"
            found.append((ast.get_source_segment(source, node), mode))
        elif name in ("read_text", "read_bytes"):
            found.append((ast.get_source_segment(source, node), "r"))
    return found


def _reads(module: Path) -> list[str]:
    """Each call in module that opens a file for reading, as its source text."""
    return [call for call, mode in _opens(module) if not set(mode) & set("wax")]


def test_only_store_opens_a_file_for_reading():
    # every other module reads through store (map_blocks, _score_blocks, _read_text),
    # save the stream collect stores as it comes
    package = Path(geosent.__file__).parent
    reads = {module.name: _reads(module) for module in sorted(package.glob("*.py"))
             if module.name != "store.py"}
    assert {name: found for name, found in reads.items() if found} == {
        "cli.py": ['open(args.input, "rb")']}
    assert 'open(path, "rb")' in _reads(package / "store.py")  # _read_text's


def test_only_store_opens_a_file_to_append():
    # collect appends to the raw table through store.open_raw; every other output is staged
    package = Path(geosent.__file__).parent
    appends = {module.name: sum("a" in mode for _, mode in _opens(module))
               for module in sorted(package.glob("*.py"))}
    assert {name: count for name, count in appends.items() if count} == {"store.py": 1}


class _CountedFile(io.FileIO):
    """A raw file that counts the bytes read from it: unbuffered through read
    (FileIO's own read does not go through readinto), or buffered through
    readinto, or readall to the end."""

    bytes_read = 0

    def read(self, size=-1):
        data = super().read(size)
        self.bytes_read += len(data or b"")
        return data

    def readinto(self, buffer):
        got = super().readinto(buffer)
        self.bytes_read += got or 0
        return got

    def readall(self):
        data = super().readall()
        self.bytes_read += len(data)
        return data


@pytest.mark.parametrize("tail", [b"", b"torn"])
def test_collect_reads_at_most_the_raw_tables_last_byte(tmp_path, monkeypatch, tail):
    path = tmp_path / "t1.jsonl"
    path.write_bytes(b'{"id_str":"1"}\n' * 1000 + tail)
    opened = []

    def counted_open(file, mode, buffering=-1):
        opened.append(_CountedFile(file, mode))
        return opened[-1] if buffering == 0 else io.BufferedRandom(opened[-1])

    monkeypatch.setattr(store, "open", counted_open, raising=False)
    collect(io.BytesIO(b"new\n"), path)
    assert [raw.bytes_read for raw in opened] == [1]
    assert path.read_bytes() == b'{"id_str":"1"}\n' * 1000 + tail + b"\n" * bool(tail) + b"new\n"

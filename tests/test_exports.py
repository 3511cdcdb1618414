"""The package's public names stay importable, listed once, in order, every
error class but the CLI's usage error derives from one base, only store
opens the files geosent reads or appends to, and only georesolve reads the
region index's private layout."""

import ast
import importlib
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geosent
from geosent import cli, store
from geosent.ingest import collect

from conftest import RawOs


def test_every_export_resolves_once_in_sorted_order():
    names = geosent.__all__
    assert [name for name in names if not hasattr(geosent, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_every_exported_function_is_called_in_the_package():
    # an export that the package never calls is a second account of a rule, kept in step by hand
    package = Path(geosent.__file__).parent
    called = set()
    for module in package.glob("*.py"):
        if module.name != "__init__.py":
            for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    called.add(getattr(node.func, "attr", getattr(node.func, "id", None)))
    functions = [name for name in geosent.__all__ if inspect.isfunction(getattr(geosent, name))]
    assert [name for name in functions if name not in called] == []


def test_import_loads_neither_elementtree_nor_multiprocessing():
    # renders are written as text, and a pool imports multiprocessing and concurrent when it opens
    code = ("import sys, geosent, geosent.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('xml', 'multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(Path(geosent.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_every_error_class_but_usage_error_derives_from_geosent_error():
    # the CLI exits 2 for any GeosentError, so an error class added later needs no edit there
    package = Path(geosent.__file__).parent
    modules = [importlib.import_module(f"geosent.{module.stem}")
               for module in sorted(package.glob("*.py")) if module.name != "__init__.py"]
    errors = {value for module in modules for value in vars(module).values()
              if isinstance(value, type) and issubclass(value, BaseException)
              and value.__module__ == module.__name__}
    assert {"StoreError", "GeoError", "LexiconError", "ClassifierError", "EstimatorError",
            "VisualizeError", "GenerateError"} <= {error.__name__ for error in errors}
    assert [f"{error.__module__}.{error.__qualname__}" for error in errors
            if not issubclass(error, store.GeosentError)] == ["geosent.cli.UsageError"]
    assert cli._DATA_ERRORS == (store.GeosentError, OSError, ValueError)
    assert "GeosentError" not in geosent.__all__


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


def test_the_scan_runner_stages_nothing():
    # the scan writes only to the file it is handed; the writer that owns an output
    # decides that it appears whole or not at all
    tree = ast.parse((Path(geosent.__file__).parent / "estimator.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    named = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    assert "staged" not in imported | named


def test_only_the_picked_draw_emits_in_the_cli():
    # cli picks a render's rows in one place, and only the draw that pick returns emits them
    cli = Path(geosent.__file__).parent / "cli.py"
    callers = []

    def visit(node, path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            path = [*path, node.name]
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
                "emit_kml", "emit_tilemap", "emit_linegraph"):
            callers.append((node.func.id, ".".join(path)))
        for child in ast.iter_child_nodes(node):
            visit(child, path)

    visit(ast.parse(cli.read_text(encoding="utf-8")), [])
    assert sorted(callers) == [("emit_kml", "_pick.draw"), ("emit_linegraph", "_pick.draw"),
                               ("emit_tilemap", "_pick.draw")]


def _os_open_mode(flags: ast.expr) -> str:
    """The mode an os.open call's flags amount to: "a" with O_APPEND, "w" with
    O_CREAT or O_TRUNC and write access, else "r"."""
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(flags)}
    if "O_APPEND" in names:
        return "a"
    if names & {"O_CREAT", "O_TRUNC"} and names & {"O_WRONLY", "O_RDWR"}:
        return "w"
    return "r"


def _opens(module: Path) -> list[tuple[str, str]]:
    """Each call in module that opens a file, as its source text and its mode
    ("r" for read_text and read_bytes, "?" where the mode is not a constant,
    and for os.open the mode its flags amount to)."""
    source = module.read_text(encoding="utf-8")
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if ast.unparse(node.func) == "os.open":  # os.open(path, flags, mode)
            found.append((ast.get_source_segment(source, node), _os_open_mode(node.args[1])))
        elif name == "open":  # open(path, mode) or path.open(mode)
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
    # collect appends to the raw table through store.append_raw; every other output is staged
    package = Path(geosent.__file__).parent
    appends = {module.name: sum("a" in mode for _, mode in _opens(module))
               for module in sorted(package.glob("*.py"))}
    assert {name: count for name, count in appends.items() if count} == {"store.py": 1}


def test_only_georesolve_reads_the_region_index_layout():
    # RegionIndex's grid and parts map are georesolve's own, so the cell layout changes in one module
    package = Path(geosent.__file__).parent
    private = {"_cells", "_box", "_x_axis", "_y_axis", "_parts"}
    reads = {}
    for module in sorted(package.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        found = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} & private
        if found:
            reads[module.name] = sorted(found)
    assert reads == {"georesolve.py": sorted(private)}


@pytest.mark.parametrize("tail", [b"", b"torn"])
def test_collect_reads_at_most_the_raw_tables_last_byte(tmp_path, monkeypatch, tail):
    path = tmp_path / "t1.jsonl"
    path.write_bytes(b'{"id_str":"1"}\n' * 1000 + tail)
    counted = RawOs(path)
    monkeypatch.setattr(store, "os", counted)
    collect(io.BytesIO(b"new\n"), path)
    assert counted.count("open") == 1
    assert [call for call in counted.calls if call[0] == "read"] == [("read", 1, 1)]
    assert path.read_bytes() == b'{"id_str":"1"}\n' * 1000 + tail + b"\n" * bool(tail) + b"new\n"

import json
import os
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest

from geosent import bundled
from geosent.store import format_parsed_line


@pytest.fixture(scope="session")
def lexicon_file():
    return bundled.lexicon_path()


@pytest.fixture(scope="session")
def regions_file():
    return bundled.regions_path()


@pytest.fixture(scope="session")
def corpus_file():
    return bundled.corpus_path()


@pytest.fixture(scope="session")
def training_file():
    return bundled.training_path()


@pytest.fixture(scope="session")
def model_file():
    return bundled.model_path()


def utc(*args):
    return datetime(*args, tzinfo=timezone.utc)


def write_parsed(path, rows) -> None:
    """Write ParsedTweet rows as a T2 table, validating each as parse_corpus does."""
    lines = []
    for row in rows:
        row.validate()
        lines.append(format_parsed_line(row) + "\n")
    Path(path).write_bytes("".join(lines).encode("utf-8"))


def fail_on_call(fn, n: int):
    """fn, except that its n-th call raises OSError, as a disk filling up would."""
    calls = 0

    def wrapper(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls == n:
            raise OSError("injected write failure")
        return fn(*args, **kwargs)
    return wrapper


class RawOs:
    """Stands in for store's os module.  Records each os call store makes on
    a descriptor that os.open gave for path, as (name, *arguments after the
    descriptor), a read as ("read", size, bytes got), and hands each write
    to that descriptor to write(fd, data) in place of os.write."""

    def __init__(self, path, write=os.write):
        self.path, self.write_t1 = os.fspath(path), write
        self.fds: set[int] = set()
        self.calls: list[tuple] = []

    def __getattr__(self, name):
        found = getattr(os, name)
        if not callable(found) or isinstance(found, type):
            return found

        def recorded(*args, **kwargs):
            if args and type(args[0]) is int and args[0] in self.fds:
                self.calls.append((name, *args[1:]))
            return found(*args, **kwargs)
        return recorded

    def count(self, name: str) -> int:
        return sum(call[0] == name for call in self.calls)

    def open(self, path, flags, mode=0o777):
        fd = os.open(path, flags, mode)
        if os.fspath(path) == self.path:
            self.fds.add(fd)
            self.calls.append(("open", flags, mode))
        return fd

    def read(self, fd, size):
        data = os.read(fd, size)
        if fd in self.fds:
            self.calls.append(("read", size, len(data)))
        return data

    def write(self, fd, data):
        if fd not in self.fds:
            return os.write(fd, data)
        self.calls.append(("write", bytes(data)))
        return self.write_t1(fd, data)

    def close(self, fd):
        if fd in self.fds:
            self.fds.discard(fd)
            self.calls.append(("close",))
        os.close(fd)


def square(x0, y0, x1, y1):
    """A closed counter-clockwise ring in (lon, lat) order."""
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]


def grid_regions(side: int) -> dict:
    """A side x side county grid covering one square country.

    County (i, j) spans lon [i, i+1) x lat [j, j+1); names are stable and
    sortable so tests can predict file order.
    """
    features = []
    for i in range(side):
        for j in range(side):
            features.append({
                "type": "Feature",
                "properties": {
                    "region_id": f"c-{i:02d}-{j:02d}",
                    "name": f"county-{i:02d}-{j:02d}",
                    "level": "County",
                    "parent": "gridland",
                },
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [square(i, j, i + 1, j + 1)],
                },
            })
    features.append({
        "type": "Feature",
        "properties": {
            "region_id": "c-grid",
            "name": "gridland",
            "level": "Country",
            "parent": "",
        },
        "geometry": {
            "type": "Polygon",
            "coordinates": [square(0, 0, side, side)],
        },
    })
    return {"type": "FeatureCollection", "features": features}


@pytest.fixture
def grid_regions_file(tmp_path):
    def write(side: int) -> Path:
        path = tmp_path / f"grid{side}.geojson"
        path.write_text(json.dumps(grid_regions(side)), encoding="utf-8")
        return path
    return write


# ---------------------------------------------------------------------------
# acceptance summary: one line per criterion at the end of the run

_CRITERION_RE = re.compile(r"test_acceptance\.py::\w*test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tally: dict[int, list[int]] = {}
    for bucket in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(bucket, []):
            match = _CRITERION_RE.search(report.nodeid)
            if not match:
                continue
            number = int(match.group(1))
            passed, total = tally.setdefault(number, [0, 0])
            tally[number][1] = total + 1
            if bucket == "passed":
                tally[number][0] = passed + 1
    if not tally:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(tally):
        passed, total = tally[number]
        verdict = "PASS" if passed == total else "FAIL"
        terminalreporter.write_line(
            f"criterion {number}: {verdict} ({passed}/{total} checks)"
        )

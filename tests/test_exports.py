"""The package's public names stay importable, listed once, in order."""

import geosent


def test_every_export_resolves_once_in_sorted_order():
    names = geosent.__all__
    assert [name for name in names if not hasattr(geosent, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)

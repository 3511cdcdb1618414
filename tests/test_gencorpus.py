import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from geosent.gencorpus import GenerateError, MixEntry, _classic_time, generate, parse_mix
from geosent.georesolve import load_regions, resolve
from geosent.ingest import _parse_created_at, parse_record

from conftest import square, utc


class TestParseMix:
    def test_plain_region_defaults_to_county(self):
        assert parse_mix("kent:10:5") == MixEntry("County", "kent", 10, 5)

    def test_level_prefix(self):
        assert parse_mix("Country/wales:3:0") == MixEntry("Country", "wales", 3, 0)

    @pytest.mark.parametrize("bad", [
        "kent:10", "kent", "kent:a:b", "kent:-1:2", "Province/kent:1:1",
    ])
    def test_rejects(self, bad):
        with pytest.raises(GenerateError):
            parse_mix(bad)

    def test_region_name_may_contain_slash(self):
        entry = parse_mix("County/mid/west:1:1")
        assert entry.region == "mid/west"


class TestGenerate:
    MIX = [
        MixEntry("County", "happycounty", 8, 2),
        MixEntry("County", "sadcounty", 2, 8),
    ]

    def test_count_and_determinism(self, tmp_path, regions_file):
        index = load_regions(regions_file)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert generate(index, self.MIX, 7, a, utc(2013, 7, 22)) == 20
        assert generate(index, self.MIX, 7, b, utc(2013, 7, 22)) == 20
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, tmp_path, regions_file):
        index = load_regions(regions_file)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        generate(index, self.MIX, 7, a, utc(2013, 7, 22))
        generate(index, self.MIX, 8, b, utc(2013, 7, 22))
        assert a.read_bytes() != b.read_bytes()

    def test_records_parse_and_resolve_home(self, tmp_path, regions_file):
        index = load_regions(regions_file)
        out = tmp_path / "raw.jsonl"
        generate(index, self.MIX, 3, out, utc(2013, 7, 22))
        per_county = {"happycounty": 0, "sadcounty": 0}
        stamps = []
        for line in out.read_text().splitlines():
            got = parse_record(line)
            assert not isinstance(got, str), got
            stamps.append(got.timestamp)
            country, county = resolve(index, got.lat, got.lon)
            assert country == "mycountry"
            per_county[county] += 1
        assert per_county == {"happycounty": 10, "sadcounty": 10}
        assert stamps == sorted(stamps)
        assert stamps[0] == utc(2013, 7, 22)
        assert stamps[-1] < utc(2013, 7, 23)

    def test_texts_carry_planted_sentiment(self, tmp_path, regions_file):
        index = load_regions(regions_file)
        out = tmp_path / "raw.jsonl"
        generate(index, [MixEntry("County", "happycounty", 5, 0)], 1, out,
                 utc(2013, 7, 22))
        for line in out.read_text().splitlines():
            text = json.loads(line)["text"]
            assert text.endswith((":)", ":D", "=)"))

    def test_unknown_region(self, tmp_path, regions_file):
        index = load_regions(regions_file)
        with pytest.raises(GenerateError, match="atlantis"):
            generate(index, [MixEntry("County", "atlantis", 1, 0)], 1,
                     tmp_path / "raw.jsonl", utc(2013, 7, 22))

    def test_empty_mix(self, tmp_path, regions_file):
        index = load_regions(regions_file)
        with pytest.raises(GenerateError, match="zero"):
            generate(index, [MixEntry("County", "happycounty", 0, 0)], 1,
                     tmp_path / "raw.jsonl", utc(2013, 7, 22))

    def test_country_entry_lands_in_the_country(self, tmp_path, regions_file):
        index = load_regions(regions_file)
        out = tmp_path / "raw.jsonl"
        assert generate(index, [MixEntry("Country", "mycountry", 3, 2)], 5, out,
                        utc(2013, 7, 22)) == 5
        for line in out.read_text().splitlines():
            got = parse_record(line)
            assert resolve(index, got.lat, got.lon)[0] == "mycountry"

    @pytest.mark.parametrize("duration", [0, -1])
    def test_duration_not_positive_rejected(self, tmp_path, regions_file, duration):
        with pytest.raises(GenerateError, match="^duration must be positive$"):
            generate(load_regions(regions_file), self.MIX, 1, tmp_path / "raw.jsonl",
                     utc(2013, 7, 22), duration)
        assert list(tmp_path.iterdir()) == []

    def test_region_no_point_lands_in_rejected(self, tmp_path):
        # every point of inner is also in outer, which comes first in the file and so wins
        regions = tmp_path / "regions.geojson"
        regions.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": props,
             "geometry": {"type": "Polygon", "coordinates": [ring]}}
            for props, ring in [
                (dict(name="land", level="Country"), square(0, 0, 4, 4)),
                (dict(name="outer", level="County", parent="land"), square(0, 0, 4, 4)),
                (dict(name="inner", level="County", parent="land"), square(1, 1, 2, 2)),
            ]]}))
        out = tmp_path / "raw.jsonl"
        with pytest.raises(GenerateError,
                           match="^could not land a point in 'inner' after 10000 tries$"):
            generate(load_regions(regions), [MixEntry("County", "inner", 1, 0)], 1, out,
                     utc(2013, 7, 22))
        assert not out.exists()

    def test_naive_start_rejected(self, tmp_path, regions_file):
        from datetime import datetime
        index = load_regions(regions_file)
        with pytest.raises(GenerateError, match="aware"):
            generate(index, self.MIX, 1, tmp_path / "raw.jsonl",
                     datetime(2013, 7, 22))

    @pytest.mark.parametrize("old", [None, b"earlier table\n"], ids=["fresh", "existing"])
    def test_failed_run_leaves_the_old_table_or_none(self, tmp_path, regions_file, old):
        out = tmp_path / "raw.jsonl"
        if old is not None:
            out.write_bytes(old)
        # thirty records are made before the unknown region is reached
        mix = [MixEntry("County", "happycounty", 30, 0), MixEntry("County", "atlantis", 1, 0)]
        with pytest.raises(GenerateError, match="atlantis"):
            generate(load_regions(regions_file), mix, 1, out, utc(2013, 7, 22))
        assert [p.name for p in tmp_path.iterdir()] == ([] if old is None else ["raw.jsonl"])
        if old is not None:
            assert out.read_bytes() == old


@settings(max_examples=500, deadline=None)
@given(st.datetimes(datetime(1000, 1, 1), datetime(9999, 12, 31, 23, 59, 59),
                    timezones=st.just(timezone.utc)).map(lambda t: t.replace(microsecond=0)))
def test_classic_time_reads_back(stamp):
    # the classic created_at format gencorpus writes is the one ingest reads
    assert _parse_created_at(_classic_time(stamp)) == stamp

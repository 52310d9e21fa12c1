"""Tests for the PARSEC-like trace synthesizer."""

import hashlib
import random
import zlib

import pytest

from repro.noc import MeshTopology
from repro.traffic import PARSEC_PROFILES, BenchmarkProfile, ParsecTraceSynthesizer


class TestProfiles:
    def test_suite_has_ten_benchmarks(self):
        assert len(PARSEC_PROFILES) == 10
        assert "blackscholes" in PARSEC_PROFILES
        assert "x264" in PARSEC_PROFILES

    def test_intensity_ordering(self):
        """Published characterization: blackscholes/swaptions lightest,
        canneal/streamcluster heaviest."""
        rates = {name: p.mean_rate for name, p in PARSEC_PROFILES.items()}
        light = max(rates["blackscholes"], rates["swaptions"])
        heavy = min(rates["canneal"], rates["streamcluster"])
        assert light < heavy

    def test_bursty_benchmarks_have_high_burst_factor(self):
        assert PARSEC_PROFILES["x264"].burst_factor >= 3.0
        assert PARSEC_PROFILES["blackscholes"].burst_factor == 1.0

    def test_mean_rate_includes_burst_duty(self):
        profile = BenchmarkProfile("b", 0.01, 3.0, 0.1, 0.1)
        # duty cycle 0.5 -> rate * (1 + 0.5 * 2) = 0.02
        assert profile.mean_rate == pytest.approx(0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchmarkProfile("bad", 1.5)
        with pytest.raises(ValueError):
            BenchmarkProfile("bad", 0.01, burst_factor=0.5)
        with pytest.raises(ValueError):
            BenchmarkProfile("bad", 0.01, locality=(0.5, 0.2, 0.2))
        with pytest.raises(ValueError):
            BenchmarkProfile("bad", 0.01, packet_size=0)


class TestSynthesizer:
    def test_rejects_empty_span(self):
        synth = ParsecTraceSynthesizer(
            PARSEC_PROFILES["ferret"], MeshTopology(4, 4), random.Random(0)
        )
        with pytest.raises(ValueError):
            synth.synthesize(0)

    def test_records_are_valid_and_sorted_by_cycle(self):
        synth = ParsecTraceSynthesizer(
            PARSEC_PROFILES["dedup"], MeshTopology(4, 4), random.Random(1)
        )
        records = synth.synthesize(300)
        assert records
        cycles = [r.cycle for r in records]
        assert cycles == sorted(cycles)
        for r in records:
            assert 0 <= r.src < 16 and 0 <= r.dest < 16 and r.src != r.dest
            assert r.size == 4

    def test_volume_matches_mean_rate(self):
        profile = PARSEC_PROFILES["streamcluster"]
        synth = ParsecTraceSynthesizer(profile, MeshTopology(4, 4), random.Random(2))
        records = synth.synthesize(2000)
        expected = profile.mean_rate * 16 * 2000
        assert 0.8 * expected < len(records) < 1.2 * expected

    def test_heavier_profile_generates_more_traffic(self):
        topo = MeshTopology(4, 4)
        light = len(
            ParsecTraceSynthesizer(
                PARSEC_PROFILES["blackscholes"], topo, random.Random(3)
            ).synthesize(1500)
        )
        heavy = len(
            ParsecTraceSynthesizer(
                PARSEC_PROFILES["canneal"], topo, random.Random(3)
            ).synthesize(1500)
        )
        assert heavy > 2 * light

    def test_hotspot_locality_targets_hotspots(self):
        profile = BenchmarkProfile("hot", 0.05, locality=(0.0, 0.0, 1.0))
        synth = ParsecTraceSynthesizer(
            profile, MeshTopology(4, 4), random.Random(4), hotspot_nodes=[5, 6]
        )
        records = synth.synthesize(300)
        assert records
        assert all(r.dest in (5, 6) for r in records)

    def test_neighbour_locality_stays_adjacent(self):
        profile = BenchmarkProfile("near", 0.05, locality=(0.0, 1.0, 0.0))
        topo = MeshTopology(4, 4)
        synth = ParsecTraceSynthesizer(profile, topo, random.Random(5))
        for r in synth.synthesize(200):
            assert topo.hop_distance(r.src, r.dest) == 1

    def test_deterministic_per_seed(self):
        topo = MeshTopology(4, 4)
        a = ParsecTraceSynthesizer(PARSEC_PROFILES["vips"], topo, random.Random(7)).synthesize(200)
        b = ParsecTraceSynthesizer(PARSEC_PROFILES["vips"], topo, random.Random(7)).synthesize(200)
        assert a == b

    def test_default_hotspots_are_centre_tiles(self):
        topo = MeshTopology(8, 8)
        synth = ParsecTraceSynthesizer(PARSEC_PROFILES["ferret"], topo, random.Random(0))
        centre = {topo.node_id(3, 3), topo.node_id(4, 3), topo.node_id(3, 4), topo.node_id(4, 4)}
        assert set(synth.hotspot_nodes) == centre


def _stream_digest(name):
    """sha256 prefix of two synthesized traces plus the RNG and burst state.

    The second synthesizer pins a single hotspot on the 3x3 centre tile,
    so the centre's hotspot draw falls back to a uniform destination.
    """
    h = hashlib.sha256()
    profile = PARSEC_PROFILES[name]
    runs = ((MeshTopology(8, 8), None, 300), (MeshTopology(3, 3), [4], 600))
    for topo, hotspots, cycles in runs:
        rng = random.Random(zlib.crc32(name.encode()))
        synth = ParsecTraceSynthesizer(profile, topo, rng, hotspot_nodes=hotspots)
        for r in synth.synthesize(cycles):
            h.update(f"{r.cycle},{r.src},{r.dest},{r.size};".encode())
        h.update(repr(rng.getstate()).encode())
        h.update(repr(synth._bursting).encode())
    return h.hexdigest()[:16]


#: pinned streams: every benchmark trace and its seeded RNG follow from
#: them, so a rewrite of the synthesizer must leave records, RNG draws and
#: burst state exactly as they are
GOLDEN_STREAMS = {
    "blackscholes": "0c10a503f0090a34",
    "bodytrack": "62a4b866e9f8b348",
    "canneal": "2d4adc4f7bd59030",
    "dedup": "4a93dd357ad8c946",
    "ferret": "2475b36f5ba5eee8",
    "fluidanimate": "b618bd5c2b6fa00e",
    "streamcluster": "54ef239406a80c7b",
    "swaptions": "a14dc3a87d67c91e",
    "vips": "e8711066b30686c5",
    "x264": "847c96cfa4334320",
}


@pytest.mark.parametrize("name", sorted(PARSEC_PROFILES))
def test_synthesized_stream_is_pinned(name):
    assert _stream_digest(name) == GOLDEN_STREAMS[name]

"""Tests for repro.units."""


import pytest

from repro.errors import ConfigurationError
from repro import units


class TestConstructors:
    def test_mhz(self):
        assert units.mhz(32) == 32e6

    def test_khz(self):
        assert units.khz(32.768) == pytest.approx(32768)

    def test_ghz(self):
        assert units.ghz(1.5) == pytest.approx(1.5e9)

    def test_mw(self):
        assert units.mw(10) == pytest.approx(0.01)

    def test_uw(self):
        assert units.uw(500) == pytest.approx(0.0005)

    def test_ua_ma(self):
        assert units.ua(100) == pytest.approx(100e-6)
        assert units.ma(1.5) == pytest.approx(1.5e-3)

    def test_time_units(self):
        assert units.us(12) == pytest.approx(12e-6)
        assert units.ms(3) == pytest.approx(3e-3)

    def test_kib(self):
        assert units.kib(64) == 65536
        assert units.kib(0.5) == 512

    def test_ua_per_mhz(self):
        # 100 uA/MHz at 1 MHz is 100 uA.
        amps = units.ua_per_mhz(100) * 1e6
        assert amps == pytest.approx(100e-6)

    def test_uw_per_mhz(self):
        watts = units.uw_per_mhz(20) * 1e6
        assert watts == pytest.approx(20e-6)


class TestDerived:
    def test_gops(self):
        assert units.gops(2e9, 1.0) == pytest.approx(2.0)

    def test_gops_rejects_zero_time(self):
        with pytest.raises(ConfigurationError):
            units.gops(1e9, 0.0)

    def test_gops_per_watt(self):
        assert units.gops_per_watt(3e9, 1.0, 0.01) == pytest.approx(300.0)

    def test_gops_per_watt_rejects_zero_power(self):
        with pytest.raises(ConfigurationError):
            units.gops_per_watt(1e9, 1.0, 0.0)


class TestFormatting:
    def test_si_format_milli(self):
        assert units.si_format(1.48e-3, "W") == "1.48 mW"

    def test_si_format_mega(self):
        assert units.format_hz(32e6) == "32 MHz"

    def test_si_format_zero(self):
        assert units.si_format(0, "W") == "0 W"

    def test_si_format_nan(self):
        assert "nan" in units.si_format(float("nan"), "W")

    def test_si_format_tiny(self):
        assert units.si_format(5e-13, "J").endswith("pJ")

    def test_format_bytes(self):
        assert units.format_bytes(8192) == "8 kB"
        assert units.format_bytes(40) == "40 B"
        assert units.format_bytes(2 * 1024 * 1024) == "2 MB"

    def test_format_seconds(self):
        assert units.format_seconds(1.2e-3) == "1.2 ms"

    def test_format_watts(self):
        assert units.format_watts(0.0398).startswith("39.8")


class TestLcg:
    """Every seeded stream that used to have its own LCG copy draws
    from :class:`repro.units.Lcg` now, bit for bit."""

    # sha256 prefixes of the first 1 000 uniforms, captured while each
    # user still carried its own generator.
    PINNED = {
        1: {"workload": "959b50fa256503d5", "fault": "959b50fa256503d5",
            "fleet0": "959b50fa256503d5", "fleet3": "0da970d785f1a0f3",
            "noise": "bba527acec02da36"},
        7: {"workload": "cf0473e989369e93", "fault": "cf0473e989369e93",
            "fleet0": "cf0473e989369e93", "fleet3": "9ac2459c019d157c",
            "noise": "ffd4202152da17a1"},
        0xDEADBEEF: {"workload": "48eaa8da5f9850ad",
                     "fault": "48eaa8da5f9850ad",
                     "fleet0": "48eaa8da5f9850ad",
                     "fleet3": "f4ceeb4d186276fb",
                     "noise": "446238658573efc7"},
    }

    @staticmethod
    def _digest(rng):
        import hashlib
        import json

        draws = [rng.uniform() for _ in range(1000)]
        text = json.dumps(draws, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def test_streams_match_pinned_digests(self):
        from repro.faults.injector import FaultInjector, FleetInjector
        from repro.faults.plan import FaultPlan, FleetPlan
        from repro.link.noise import NoisyChannel
        from repro.serve.workload import Lcg

        for seed, pinned in self.PINNED.items():
            fleet = FleetInjector(FleetPlan("clean"), seed)
            streams = {
                "workload": Lcg(seed),
                "fault": FaultInjector(FaultPlan("clean"), seed)._rng,
                "fleet0": fleet._lcg(0),
                "fleet3": fleet._lcg(3),
                "noise": NoisyChannel(0.0, seed)._rng,
            }
            assert {name: self._digest(rng)
                    for name, rng in streams.items()} == pinned, seed

    def test_one_class(self):
        from repro.serve import workload

        assert workload.Lcg is units.Lcg

    def test_from_state_skips_the_seed_mix(self):
        mixed = units.Lcg(5)
        raw = units.Lcg.from_state((5 * 0x9E3779B9 + 0x7F4A7C15) + (1 << 32))
        assert [mixed.uniform() for _ in range(8)] == \
            [raw.uniform() for _ in range(8)]

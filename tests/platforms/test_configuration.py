"""Unit tests for Platform, Processor and Configuration behaviours."""

from __future__ import annotations

import pytest

from repro.exceptions import InvalidParameterError, SpeedNotAvailableError
from repro.platforms import Configuration, Platform, Processor, XSCALE


class TestPlatform:
    def test_recovery_defaults_to_checkpoint(self):
        p = Platform("X", 1e-5, 100.0, 10.0)
        assert p.recovery_time == 100.0

    def test_explicit_recovery_kept(self):
        p = Platform("X", 1e-5, 100.0, 10.0, recovery_time=40.0)
        assert p.recovery_time == 40.0

    def test_mtbf(self):
        assert Platform("X", 4e-6, 1.0, 1.0).mtbf == pytest.approx(250_000.0)

    def test_invalid_rate(self):
        with pytest.raises(InvalidParameterError):
            Platform("X", 0.0, 1.0, 1.0)

    def test_negative_checkpoint(self):
        with pytest.raises(InvalidParameterError):
            Platform("X", 1e-5, -1.0, 1.0)

    def test_with_checkpoint_time_tracks_recovery(self):
        p = Platform("X", 1e-5, 100.0, 10.0).with_checkpoint_time(500.0)
        assert p.checkpoint_time == 500.0
        assert p.recovery_time == 500.0

    def test_with_checkpoint_time_keep_recovery(self):
        p = Platform("X", 1e-5, 100.0, 10.0).with_checkpoint_time(
            500.0, keep_recovery=True
        )
        assert p.recovery_time == 100.0

    def test_with_error_rate(self):
        p = Platform("X", 1e-5, 100.0, 10.0).with_error_rate(9e-4)
        assert p.error_rate == 9e-4

    def test_with_verification_time(self):
        p = Platform("X", 1e-5, 100.0, 10.0).with_verification_time(77.0)
        assert p.verification_time == 77.0

    def test_with_recovery_time(self):
        p = Platform("X", 1e-5, 100.0, 10.0).with_recovery_time(1.0)
        assert p.recovery_time == 1.0
        assert p.checkpoint_time == 100.0


class TestProcessor:
    def test_speeds_sorted(self):
        p = Processor("X", speeds=(1.0, 0.4, 0.6), kappa=10.0, idle_power=1.0)
        assert p.speeds == (0.4, 0.6, 1.0)

    def test_duplicate_speeds_rejected(self):
        with pytest.raises(InvalidParameterError):
            Processor("X", speeds=(0.5, 0.5), kappa=10.0, idle_power=1.0)

    def test_empty_speed_set_rejected(self):
        with pytest.raises(InvalidParameterError):
            Processor("X", speeds=(), kappa=10.0, idle_power=1.0)

    def test_min_max(self):
        assert XSCALE.min_speed == 0.15
        assert XSCALE.max_speed == 1.0

    def test_require_member(self):
        assert XSCALE.require_member(0.4) == 0.4
        with pytest.raises(SpeedNotAvailableError):
            XSCALE.require_member(0.5)

    def test_with_idle_power(self):
        p = XSCALE.with_idle_power(123.0)
        assert p.idle_power == 123.0
        assert p.speeds == XSCALE.speeds

    def test_with_speeds(self):
        p = XSCALE.with_speeds((0.25, 0.5, 0.75, 1.0))
        assert p.num_speeds == 4

    def test_dynamic_power_excludes_idle(self):
        assert XSCALE.dynamic_power(1.0) == pytest.approx(1550.0)


class TestConfiguration:
    @pytest.fixture
    def cfg(self) -> Configuration:
        return Configuration(
            platform=Platform("P", 1e-5, 100.0, 10.0),
            processor=Processor("C", (0.5, 1.0), kappa=1000.0, idle_power=50.0),
        )

    def test_accessors(self, cfg):
        assert cfg.lam == 1e-5
        assert cfg.checkpoint_time == 100.0
        assert cfg.verification_time == 10.0
        assert cfg.recovery_time == 100.0
        assert cfg.speeds == (0.5, 1.0)

    def test_name(self, cfg):
        assert cfg.name == "P/C"

    def test_default_io_power(self, cfg):
        assert cfg.io_power == pytest.approx(1000.0 * 0.5**3)

    def test_explicit_io_power(self):
        cfg = Configuration(
            platform=Platform("P", 1e-5, 100.0, 10.0),
            processor=Processor("C", (0.5, 1.0), kappa=1000.0, idle_power=50.0),
            io_power=77.0,
        )
        assert cfg.io_power == 77.0

    def test_power_model_assembly(self, cfg):
        pm = cfg.power
        assert pm.kappa == 1000.0
        assert pm.idle == 50.0
        assert pm.io == cfg.io_power

    def test_with_checkpoint_time(self, cfg):
        c2 = cfg.with_checkpoint_time(999.0)
        assert c2.checkpoint_time == 999.0
        assert c2.recovery_time == 999.0
        assert cfg.checkpoint_time == 100.0

    def test_with_error_rate(self, cfg):
        assert cfg.with_error_rate(1e-3).lam == 1e-3

    def test_with_idle_power_keeps_io(self, cfg):
        # Changing Pidle must not silently change the default Pio
        # (which depends on kappa * sigma_min^3, not on Pidle).
        io_before = cfg.io_power
        c2 = cfg.with_idle_power(4000.0)
        assert c2.io_power == io_before
        assert c2.power.idle == 4000.0

    def test_with_io_power(self, cfg):
        assert cfg.with_io_power(1234.0).io_power == 1234.0

    def test_negative_io_power_rejected(self, cfg):
        with pytest.raises(InvalidParameterError):
            Configuration(platform=cfg.platform, processor=cfg.processor, io_power=-1.0)


class TestConfigurationHashMemo:
    """The hash is computed once per instance and memoised outside the
    fields: equal to the field hash, and invisible to ``==``, ``repr``,
    copies and pickles."""

    def test_hash_survives_copy_and_pickle(self):
        import copy
        import pickle

        from repro.platforms.catalog import get_configuration

        cfg = get_configuration("hera-xscale").with_error_rate(1e-5)
        field_hash = hash((cfg.platform, cfg.processor, cfg.io_power))
        assert hash(cfg) == field_hash
        twin = pickle.loads(pickle.dumps(cfg))
        assert hash(cfg) == hash(copy.copy(cfg)) == hash(twin) == field_hash
        assert "_hash" not in pickle.loads(pickle.dumps(cfg)).__dict__
        assert "_hash" not in copy.copy(cfg).__dict__
        assert twin == cfg and repr(twin) == repr(cfg)

    def test_equality_unchanged_by_the_memo(self):
        from dataclasses import replace

        from repro.platforms.catalog import get_configuration

        a = get_configuration("atlas-crusoe")
        b = replace(a)
        hash(a)
        assert a == b and "_hash" in a.__dict__ and "_hash" not in b.__dict__
        assert a != a.with_io_power(1.0)
        assert hash(a.with_io_power(1.0)) == hash(replace(a, io_power=1.0))

    def test_hash_runs_once_per_instance(self, monkeypatch):
        from repro.platforms.catalog import get_configuration

        cfg = get_configuration("hera-crusoe").with_error_rate(2e-5)
        calls = []
        real = Platform.__hash__
        monkeypatch.setattr(Platform, "__hash__", lambda p: calls.append(p) or real(p))
        keys = {(cfg, rho): rho for rho in (1.5, 2.0, 3.0)}
        assert all(keys[(cfg, rho)] == rho for rho in (1.5, 2.0, 3.0))
        assert len(calls) == 1

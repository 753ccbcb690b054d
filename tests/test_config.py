"""Config schema, presets and dotted-key overrides."""

import dataclasses
import json

import pytest

import dualstage as ds
from dualstage.config import MAX_TRACKER_STATE
from dualstage.framing import MAX_SAMPLE_RATE_HZ
from dualstage.errors import ConfigError


class TestRoundTrip:
    def test_dict_round_trip_is_identity(self, comm_cfg):
        doc = ds.config_to_dict(comm_cfg)
        again = ds.config_from_dict(doc)
        assert ds.config_to_dict(again) == doc

    def test_file_round_trip(self, tmp_path, comm_cfg):
        p = tmp_path / "cfg.json"
        ds.save_config(comm_cfg, p)
        loaded = ds.load_config(p)
        assert ds.config_to_dict(loaded) == ds.config_to_dict(comm_cfg)

    def test_dumps_is_valid_json(self, comm_cfg):
        doc = json.loads(ds.config_dumps(comm_cfg))
        assert doc["num_bands"] == 33


class TestValidation:
    def test_unknown_key_names_dotted_path(self, comm_cfg):
        doc = ds.config_to_dict(comm_cfg)
        doc["stage1"]["tracker"]["typo"] = 1
        with pytest.raises(ConfigError, match="stage1.tracker.typo"):
            ds.config_from_dict(doc)

    def test_missing_key_names_dotted_path(self, comm_cfg):
        doc = ds.config_to_dict(comm_cfg)
        del doc["stage2"]["gains"]["mu"]
        with pytest.raises(ConfigError, match="stage2.gains.mu"):
            ds.config_from_dict(doc)

    def test_type_mismatch_rejected(self, comm_cfg):
        doc = ds.config_to_dict(comm_cfg)
        doc["frame"]["frame_len"] = "long"
        with pytest.raises(ConfigError, match="frame_len"):
            ds.config_from_dict(doc)

    def test_sample_rate_is_bounded_by_the_wav_rate_field(self, comm_cfg):
        """The largest rate a WAV header can carry is accepted; one more,
        or an integer too large for a float, is refused before anything
        divides by it."""
        cfg = ds.apply_overrides(comm_cfg, [f"frame.sample_rate_hz={MAX_SAMPLE_RATE_HZ}"])
        assert cfg.frame.sample_rate_hz == 2**32 - 1
        for rate in (MAX_SAMPLE_RATE_HZ + 1, 10**400, -(10**400)):
            with pytest.raises(ConfigError, match="sample_rate_hz must lie in"):
                ds.apply_overrides(comm_cfg, [f"frame.sample_rate_hz={rate}"])

    @pytest.mark.parametrize("digits", [401, 5000])
    @pytest.mark.parametrize(
        "cls, name",
        [
            (cls, f.name)
            for cls in (ds.FrameConfig, ds.TrackerParams, ds.GainParams)
            for f in dataclasses.fields(cls)
            if isinstance(f.default, (int, float))
        ],
    )
    def test_huge_integer_on_direct_construction(self, cls, name, digits):
        """Built directly, not through the JSON codec, a field given an
        integer beyond the float range (one too long for Python to print
        among them) raises ConfigError, whose message names the field."""
        with pytest.raises(ConfigError, match=name):
            cls(**{name: 10 ** (digits - 1)})

    def test_non_object_section_rejected(self, comm_cfg):
        doc = ds.config_to_dict(comm_cfg)
        doc["stage1"]["tracker"] = [1, 2]
        with pytest.raises(ConfigError, match="'stage1.tracker' must be a JSON object"):
            ds.config_from_dict(doc)

    @pytest.mark.parametrize(
        "section,retired,replacement",
        [
            ("tracker", "subwindow_len", "window_len"),
            ("tracker", "num_subwindows", "window_len"),
            ("tracker", "scale_window_with_snr", "delete it"),
            (None, "uses_snr_feed", "alpha_snr_map"),
        ],
    )
    def test_retired_key_names_its_replacement(self, comm_cfg, section, retired, replacement):
        """Files of the earlier schema are rejected, not migrated; the
        message says what to write instead."""
        doc = ds.config_to_dict(comm_cfg)
        node = doc["stage2"] if section is None else doc["stage2"][section]
        node[retired] = False
        key = ".".join(k for k in ("stage2", section, retired) if k)
        with pytest.raises(ConfigError, match=rf"'{key}' \(retired: .*{replacement}"):
            ds.config_from_dict(doc)
        with pytest.raises(ConfigError, match=replacement):
            ds.apply_overrides(comm_cfg, [f"{key}=1"])

    def test_stage1_alpha_map_rejected(self, comm_cfg):
        """Only Stage 2 takes the Stage-1 frame SNR, so a Stage-1 map
        would be ignored; it is refused instead."""
        with pytest.raises(ConfigError, match="stage1.tracker.alpha_snr_map must be null"):
            ds.apply_overrides(comm_cfg, ["stage1.tracker.alpha_snr_map=[[0,4],[20,1]]"])

    def test_tracker_state_is_bounded(self, comm_cfg):
        """(window_len + 1) * num_bands floats per stage, at most
        MAX_TRACKER_STATE; checked before anything is allocated."""
        largest = MAX_TRACKER_STATE // comm_cfg.num_bands - 1
        for stage in ("stage1", "stage2"):
            key = f"{stage}.tracker.window_len"
            cfg = ds.apply_overrides(comm_cfg, [f"{key}={largest}"])
            assert getattr(cfg, stage).tracker.window_len == largest
            with pytest.raises(ConfigError, match=f"{key} {largest + 1} needs"):
                ds.apply_overrides(comm_cfg, [f"{key}={largest + 1}"])

    def test_per_band_array_length_enforced(self, comm_cfg):
        doc = ds.config_to_dict(comm_cfg)
        doc["stage2"]["gains"]["mu"] = [1.0] * 32
        with pytest.raises(ConfigError, match="num_bands"):
            ds.config_from_dict(doc)

    def test_per_band_array_of_right_length_accepted(self, comm_cfg):
        doc = ds.config_to_dict(comm_cfg)
        doc["stage2"]["gains"]["mu"] = [1.0] * 33
        cfg = ds.config_from_dict(doc)
        assert cfg.stage2.gains.mu == tuple([1.0] * 33)


class TestPresets:
    def test_bundled_presets_present(self):
        names = ds.list_presets()
        for name in ("communication", "voice-trigger", "multimedia"):
            assert name in names

    def test_each_preset_loads_and_validates(self):
        for name in ds.list_presets():
            cfg = ds.load_preset(name)
            assert cfg.frame.sample_rate_hz == 16000

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            ds.load_preset("does-not-exist")

    def test_env_dir_shadows_bundled(self, tmp_path, comm_cfg, monkeypatch):
        doc = ds.config_to_dict(comm_cfg)
        doc["stage2"]["gains"]["mu"] = 0.77
        (tmp_path / "communication.json").write_text(json.dumps(doc))
        monkeypatch.setenv("DUALSTAGE_PRESET_DIR", str(tmp_path))
        assert ds.load_preset("communication").stage2.gains.mu == 0.77

    def test_cascade_floors(self):
        """Per-stage floors multiply through the cascade; the presets
        split the end-to-end suppression limit evenly across stages."""
        vt = ds.load_preset("voice-trigger")
        assert vt.stage1.gains.gain_floor * vt.stage2.gains.gain_floor == pytest.approx(0.5)
        mm = ds.load_preset("multimedia")
        assert mm.stage1.gains.gain_floor * mm.stage2.gains.gain_floor == pytest.approx(0.25)


class TestOverrides:
    def test_numeric_override(self, comm_cfg):
        cfg = ds.apply_overrides(comm_cfg, ["stage2.gains.mu=1.2"])
        assert cfg.stage2.gains.mu == 1.2
        assert comm_cfg.stage2.gains.mu == 1.49  # original untouched

    def test_json_list_override(self, comm_cfg):
        mu = json.dumps([1.0] * 33)
        cfg = ds.apply_overrides(comm_cfg, [f"stage2.gains.mu={mu}"])
        assert cfg.stage2.gains.mu == tuple([1.0] * 33)

    def test_string_fallback(self, comm_cfg):
        cfg = ds.apply_overrides(comm_cfg, ["frame.window_kind=sqrt-hann"])
        assert cfg.frame.window_kind == "sqrt-hann"

    def test_bad_path_rejected(self, comm_cfg):
        with pytest.raises(ConfigError, match="unknown config key"):
            ds.apply_overrides(comm_cfg, ["stage3.gains.mu=1.0"])

    def test_missing_equals_rejected(self, comm_cfg):
        with pytest.raises(ConfigError, match="key.path=value"):
            ds.apply_overrides(comm_cfg, ["stage2.gains.mu"])

    def test_override_value_revalidated(self, comm_cfg):
        with pytest.raises(ConfigError, match="mu"):
            ds.apply_overrides(comm_cfg, ["stage2.gains.mu=9.0"])

    def test_last_assignment_wins(self, comm_cfg):
        cfg = ds.apply_overrides(comm_cfg, ["stage2.gains.mu=1.0", "stage2.gains.mu=1.3"])
        assert cfg.stage2.gains.mu == 1.3

import json
from dataclasses import replace

import numpy as np
import pytest
import yaml

import photonrc.harness as harness_mod
from photonrc.cli import main
from photonrc.config import (
    ALL_3BIT_HEADERS,
    ci_profile,
    config_from_dict,
    config_to_dict,
    load_config,
    paper_profile,
    profile_by_name,
    save_config,
)


class TestProfiles:
    def test_paper_defaults(self):
        cfg = paper_profile()
        assert cfg.bitrates_gbps == tuple(float(r) for r in range(1, 32))
        assert cfg.n_train_bits == cfg.n_test_bits == 10010
        assert cfg.warmup_bits == 10
        assert cfg.n_reservoirs == 10
        assert cfg.samples_per_bit == 24
        assert cfg.p_total_w == 0.1
        assert cfg.bias_power_w == 0.02
        assert cfg.detector.responsivity == 0.5
        assert cfg.detector.bandwidth_hz == 25e9
        assert cfg.detector.dark_current_a == 1e-10
        assert cfg.detector.temperature_k == 300.0
        assert cfg.detector.load_ohm == 1e6
        assert cfg.reservoir.delay_s == 62.5e-12
        assert cfg.reservoir.loss_db_per_cm == 3.0

    def test_ci_profile_scales_down(self):
        cfg = ci_profile()
        assert cfg.n_train_bits == 2010
        assert cfg.bitrates_gbps == (5.0, 10.0, 15.0, 20.0)
        assert cfg.n_reservoirs == 3

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            profile_by_name("huge")

    def test_all_headers_constant(self):
        assert len(ALL_3BIT_HEADERS) == 8
        assert "000" in ALL_3BIT_HEADERS and "111" in ALL_3BIT_HEADERS


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        cfg = replace(ci_profile(), master_seed=7, headers=("110",))
        path = tmp_path / "cfg.yaml"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg

    def test_partial_overlay(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({"n_reservoirs": 2, "detector": {"noise_enabled": False}}))
        cfg = load_config(path, base=ci_profile())
        assert cfg.n_reservoirs == 2
        assert cfg.detector.noise_enabled is False
        assert cfg.n_train_bits == 2010  # untouched base value

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            config_from_dict({"bitrate": 5})
        with pytest.raises(ValueError, match="DetectorConfig"):
            config_from_dict({"detector": {"gain": 2}})

    def test_validation_applies(self):
        with pytest.raises(ValueError):
            config_from_dict({"trainers": ["svm"]})
        with pytest.raises(ValueError):
            config_from_dict({"bitrates_gbps": [0.0]})

    def test_dict_representation_is_plain(self):
        d = config_to_dict(ci_profile())
        json.dumps(d)  # must be serializable
        assert d["detector"]["responsivity"] == 0.5
        assert isinstance(d["bitrates_gbps"], list)


def _cli_args(tmp_path, *extra):
    return [
        "--profile",
        "ci",
        "--bitrates",
        "10",
        "--seeds",
        "1",
        "--out",
        str(tmp_path),
        "--quiet",
        *extra,
    ]


class TestCli:
    def test_sweep_writes_outputs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "120")
        code = main(
            [
                "sweep",
                "--profile",
                "ci",
                "--bitrates",
                "10",
                "--seeds",
                "1",
                "--trainer",
                "ridge",
                "--config",
                str(_tiny_config(tmp_path)),
                "--out",
                str(tmp_path / "run"),
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "geo-mean test BER" in out
        assert (tmp_path / "run" / "records.csv").exists()
        assert (tmp_path / "run" / "summary.json").exists()

    def test_sweep_reruns_byte_identical(self, tmp_path):
        cfg_file = _tiny_config(tmp_path)
        for sub in ("a", "b"):
            main(
                [
                    "sweep",
                    "--profile",
                    "ci",
                    "--bitrates",
                    "10",
                    "--seeds",
                    "1",
                    "--config",
                    str(cfg_file),
                    "--out",
                    str(tmp_path / sub),
                    "--quiet",
                ]
            )
        a = (tmp_path / "a" / "records.csv").read_bytes()
        b = (tmp_path / "b" / "records.csv").read_bytes()
        assert a == b

    def test_noise_flag_off_changes_config(self, tmp_path, capsys):
        cfg_file = _tiny_config(tmp_path)
        code = main(
            [
                "sweep",
                "--profile",
                "ci",
                "--bitrates",
                "10",
                "--seeds",
                "1",
                "--noise",
                "off",
                "--config",
                str(cfg_file),
                "--out",
                str(tmp_path / "quietrun"),
                "--quiet",
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "quietrun" / "summary.json").read_text())
        assert payload["config"]["detector"]["noise_enabled"] is False
        assert payload["package"] == "photonrc"

    def test_probe_dump(self, tmp_path, capsys):
        cfg_file = _tiny_config(tmp_path)
        code = main(
            [
                "probe-dump",
                "--profile",
                "ci",
                "--config",
                str(cfg_file),
                "--bitrate",
                "10",
                "--out",
                str(tmp_path / "probes"),
                "--quiet",
            ]
        )
        assert code == 0
        probes = (tmp_path / "probes" / "probes.csv").read_text().splitlines()
        assert len(probes) == 1 + 49  # header + 3*17-2 probes
        states = (tmp_path / "probes" / "estimated_states.csv").read_text().splitlines()
        assert states[0] == "n,channel,re,im,defaulted"

    def test_probe_dump_exports_the_nlinv_round(self, tmp_path, monkeypatch):
        # The export is the probing round the nlinv trainer trains on, repeats
        # included, written as plain numbers.
        cfg_file = tmp_path / "repeats.yaml"
        cfg_file.write_text(
            yaml.safe_dump({"n_train_bits": 160, "n_test_bits": 160, "nlinv": {"repeats": 2}})
        )
        out = tmp_path / "probes"
        args = ["probe-dump", "--profile", "ci", "--config", str(cfg_file), "--bitrate", "10"]
        assert main(args + ["--out", str(out), "--quiet"]) == 0

        rounds = []
        real_train_nlinv = harness_mod.train_nlinv

        def recording_train_nlinv(*a, **kw):
            rounds.append(real_train_nlinv(*a, **kw))
            return rounds[-1]

        monkeypatch.setattr(harness_mod, "train_nlinv", recording_train_nlinv)
        cfg = load_config(cfg_file, base=ci_profile())
        harness_mod.run_single(cfg, 10.0, cfg.headers[0], "nlinv")
        (trained,) = rounds
        assert trained.presentations == 2 * (3 * 17 - 2)
        estimated = trained.estimated

        rows = [line.split(",") for line in (out / "estimated_states.csv").read_text().splitlines()[1:]]
        n, f = estimated.samples.shape
        assert [(int(r[0]), int(r[1])) for r in rows] == [(i, c) for i in range(n) for c in range(f)]
        re = np.array([float(r[2]) for r in rows]).reshape(n, f)
        im = np.array([float(r[3]) for r in rows]).reshape(n, f)
        defaulted = np.array([int(r[4]) for r in rows], dtype=bool).reshape(n, f)
        assert (re == estimated.samples.real).all()
        assert (im == estimated.samples.imag).all()
        assert (defaulted == estimated.defaulted).all()

    def test_headers_command(self, tmp_path, capsys):
        cfg_file = _tiny_config(tmp_path)
        code = main(
            [
                "headers",
                "--profile",
                "ci",
                "--bitrates",
                "10",
                "--seeds",
                "1",
                "--config",
                str(cfg_file),
                "--out",
                str(tmp_path / "hdrs"),
                "--quiet",
            ]
        )
        assert code == 0
        records = (tmp_path / "hdrs" / "records.csv").read_text().splitlines()
        assert len(records) == 1 + 8  # header row + one record per 3-bit pattern

    def test_converge_command(self, tmp_path, capsys):
        cfg_file = tmp_path / "conv.yaml"
        cfg_file.write_text(
            yaml.safe_dump(
                {
                    "n_train_bits": 160,
                    "n_test_bits": 160,
                    "cmaes": {"convergence_iterations": 3, "population": 4},
                }
            )
        )
        code = main(
            [
                "converge",
                "--profile",
                "ci",
                "--config",
                str(cfg_file),
                "--out",
                str(tmp_path / "conv"),
                "--quiet",
            ]
        )
        assert code == 0
        assert "presentations" in capsys.readouterr().out
        assert (tmp_path / "conv" / "convergence.csv").exists()


def _tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    if not path.exists():
        path.write_text(yaml.safe_dump({"n_train_bits": 160, "n_test_bits": 160}))
    return path

import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest
import yaml

import photonrc.cli as cli_mod
import photonrc.harness as harness_mod
from photonrc.cli import main
from photonrc.cmaes import DEFAULT_SIGMA_SWEEP
from photonrc.detector import ELEMENTARY_CHARGE, noise_variance
from photonrc.harness import BER_FLOOR_ERRORS, CONVERGENCE_BITRATE_GBPS, SEARCH_BITS, _instance_topology
from photonrc.reservoir import SPEED_OF_LIGHT
from photonrc.config import (
    ALL_3BIT_HEADERS,
    SAMPLES_PER_BIT,
    WARMUP_BITS,
    ci_profile,
    config_from_dict,
    config_to_dict,
    load_config,
    paper_profile,
    profile_by_name,
)


class TestProfiles:
    def test_paper_defaults(self):
        cfg = paper_profile()
        assert cfg.bitrates_gbps == tuple(float(r) for r in range(1, 32))
        assert cfg.n_train_bits == cfg.n_test_bits == 10010
        assert WARMUP_BITS == 10
        assert SEARCH_BITS == 2
        assert BER_FLOOR_ERRORS == 10
        assert CONVERGENCE_BITRATE_GBPS == 10.0
        assert cfg.n_reservoirs == 10
        assert SAMPLES_PER_BIT == 24
        assert cfg.p_total_w == 0.1
        assert cfg.bias_power_w == 0.02
        assert cfg.detector.responsivity == 0.5
        assert cfg.detector.bandwidth_hz == 25e9
        assert cfg.detector.dark_current_a == 1e-10
        assert cfg.detector.temperature_k == 300.0
        assert cfg.detector.load_ohm == 1e6
        # 62.5 ps waveguides at 3 dB/cm and group index 4.2
        edges = _instance_topology(cfg, 0)[0].edges
        assert {e.delay for e in edges} == {62.5e-12}
        assert {e.loss_db for e in edges} == {3.0 * (62.5e-12 * SPEED_OF_LIGHT / 4.2 * 100.0)}

    def test_fixed_protocol_is_not_configuration(self):
        # The warm-up, sampling rate, offset search, BER floor, convergence
        # bitrate, input smoothing and swirl waveguides are constants, not
        # settings.
        d = config_to_dict(paper_profile())
        deleted = {
            "warmup_bits",
            "samples_per_bit",
            "search_bits",
            "ber_floor_errors",
            "convergence_bitrate_gbps",
            "smoothing",
        }
        assert not deleted & set(d)
        assert set(d["reservoir"]) == {"rows", "cols", "topology_file"}

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
        path.write_text(yaml.safe_dump(config_to_dict(cfg), sort_keys=True))
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

    def test_yaml_exponent_floats_are_numbers(self, tmp_path):
        # PyYAML reads 1e-3 and 2.5e10 as strings: without a dot and a
        # signed exponent they are not YAML 1.1 floats.
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "p_total_w: 1e-3\nperturbation_b_over_pi: [0, 1e-1]\n"
            "detector: {bandwidth_hz: 2.5e10}\ncmaes: {sigma_sweep: [1e-5, 1.0]}\n"
        )
        cfg = load_config(path, base=ci_profile())
        assert cfg.p_total_w == 1e-3 and type(cfg.p_total_w) is float
        assert cfg.detector.bandwidth_hz == 2.5e10 and type(cfg.detector.bandwidth_hz) is float
        assert cfg.cmaes.sigma_sweep == (1e-5, 1.0)
        assert cfg.perturbation_b_over_pi == (0.0, 0.1)
        assert all(type(v) is float for v in cfg.cmaes.sigma_sweep + cfg.perturbation_b_over_pi)

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"p_total_w": "abc"}, "p_total_w"),
            ({"p_total_w": None}, "p_total_w"),
            ({"bias_power_w": True}, "bias_power_w"),
            ({"detector": {"bandwidth_hz": "wide"}}, "bandwidth_hz"),
            ({"cmaes": {"sigma_sweep": [0.1, "big"]}}, "sigma_sweep"),
        ],
    )
    def test_non_number_float_rejected(self, data, key):
        with pytest.raises(ValueError, match=f"{key} must be a number"):
            config_from_dict(data, base=ci_profile())

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"perturbation_bitrate_gbps": 0}, "perturbation_bitrate_gbps"),
            ({"n_perturbation_draws": 0}, "n_perturbation_draws"),
            ({"cmaes": {"population": 3}}, "cmaes.population"),
            ({"cmaes": {"max_iterations": 0}}, "cmaes.max_iterations"),
            ({"cmaes": {"convergence_iterations": 0}}, "cmaes.convergence_iterations"),
            ({"reservoir": {"rows": 1}}, "reservoir.rows must be at least 2"),
            ({"reservoir": {"cols": 0}}, "reservoir.cols must be at least 2"),
            ({"n_train_bits": WARMUP_BITS}, "warm-up must be shorter than the bit sequences"),
            ({"n_test_bits": WARMUP_BITS}, "warm-up must be shorter than the bit sequences"),
            ({"p_total_w": -1}, "p_total_w"),
            ({"bias_power_w": 0}, "bias_power_w"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_bad_setting_rejected_at_construction(self, data, key):
        # Each of these used to fail only once a cell ran, or to write NaN.
        with pytest.raises(ValueError, match=re.escape(key)):
            config_from_dict(data, base=ci_profile())

    @pytest.mark.parametrize("b", [-0.1, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
    def test_perturbation_b_checked_at_construction(self, b):
        # Each of these used to fail only after a perturbation run had trained.
        with pytest.raises(ValueError, match="perturbation_b_over_pi"):
            replace(ci_profile(), perturbation_b_over_pi=(0.0, b))

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"bitrates_gbps": [10, float("inf")]}, "bitrates"),
            ({"perturbation_bitrate_gbps": float("inf")}, "perturbation_bitrate_gbps"),
            ({"p_total_w": float("inf")}, "p_total_w"),
            ({"bias_power_w": float("inf")}, "bias_power_w"),
            ({"detector": {"responsivity": float("inf")}}, "responsivity"),
            ({"detector": {"bandwidth_hz": float("inf")}}, "bandwidth"),
            ({"detector": {"dark_current_a": float("inf")}}, "dark current"),
            ({"detector": {"temperature_k": float("inf")}}, "temperature"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_infinite_setting_rejected_at_construction(self, data, key):
        # Each of these used to pass and fail inside the first cell.
        with pytest.raises(ValueError, match=re.escape(key) + ".* finite, got inf"):
            config_from_dict(data, base=ci_profile())

    def test_infinite_load_is_a_detector_without_thermal_noise(self):
        cfg = config_from_dict({"detector": {"load_ohm": float("inf")}}, base=ci_profile())
        assert cfg.detector.load_ohm == float("inf")
        d = cfg.detector
        shot = 2.0 * ELEMENTARY_CHARGE * d.bandwidth_hz * (1e-3 + d.dark_current_a)
        assert noise_variance(1e-3, d) == shot

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"detector": {"noise_enabled": "off"}}, "noise_enabled must be true or false, got 'off'"),
            ({"detector": {"noise_enabled": 0}}, "noise_enabled must be true or false, got 0"),
            ({"detector": {"filter_enabled": None}}, "filter_enabled must be true or false, got None"),
            ({"reservoir": {"topology_file": 5}}, "topology_file must be a string or null, got 5"),
            ({"reservoir": {"topology_file": ["a.topo"]}}, "topology_file must be a string or null"),
        ],
        ids=["noise-string", "noise-int", "filter-null", "topology-int", "topology-list"],
    )
    def test_bool_and_string_settings_take_only_their_type(self, data, message):
        # The string "off" used to run with noise on, and a number as the
        # topology file to end in a TypeError traceback.
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict(data, base=ci_profile())

    def test_bool_and_string_settings_accept_their_type(self):
        data = {"detector": {"noise_enabled": False}, "reservoir": {"topology_file": None}}
        cfg = config_from_dict(data, base=ci_profile())
        assert cfg.detector.noise_enabled is False and cfg.reservoir.topology_file is None

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"n_perturbation_draws": "two"}, "n_perturbation_draws"),
            ({"n_train_bits": True}, "n_train_bits"),
            ({"n_reservoirs": 2.5}, "n_reservoirs"),
            ({"master_seed": "7"}, "master_seed"),
            ({"reservoir": {"rows": 4.5}}, "rows"),
            ({"cmaes": {"max_iterations": "ten"}}, "max_iterations"),
            ({"cmaes": {"population": 4.5}}, "population"),
            ({"cmaes": {"population": False}}, "population"),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_non_integer_int_rejected(self, data, key):
        # Each of these used to pass, or to end in a TypeError traceback.
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            config_from_dict(data, base=ci_profile())

    def test_integral_ints_accepted(self):
        cfg = config_from_dict(
            {"n_reservoirs": 2.0, "cmaes": {"max_iterations": 5, "population": None}}, base=ci_profile()
        )
        assert cfg.n_reservoirs == 2 and type(cfg.n_reservoirs) is int
        assert cfg.cmaes.max_iterations == 5 and cfg.cmaes.population is None
        cfg = config_from_dict({"cmaes": {"population": 6.0}})
        assert cfg.cmaes.population == 6 and type(cfg.cmaes.population) is int

    def test_quoted_yaml_header_keeps_its_zeros(self, tmp_path):
        # unquoted, the same header is the integer 1 (see the usage-error tests)
        path = tmp_path / "headers.yaml"
        path.write_text('headers: ["001"]\n')
        assert load_config(path).headers == ("001",)

    def test_ridge_section_rejected(self, tmp_path):
        # The ridge fit has no settings: a leftover section is an error.
        path = tmp_path / "cfg.yaml"
        path.write_text("ridge:\n  folds: 3\n")
        with pytest.raises(ValueError, match="ridge"):
            load_config(path)

    @pytest.mark.parametrize(
        "section, key",
        [("detector", "noise_seed"), ("cmaes", "target_sse"), (None, "nlinv")],
    )
    def test_deleted_keys_rejected(self, tmp_path, section, key):
        # Settings that only ever took one value are gone; a leftover key is
        # an unknown key, not a silently ignored one.
        data = {key: {"repeats": 2}} if section is None else {section: {key: 3}}
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ValueError, match=f"unknown .*{key}"):
            load_config(path)

    @pytest.mark.parametrize(
        "data, key",
        [
            ({"headers": "101"}, "headers"),
            ({"bitrates_gbps": 10}, "bitrates_gbps"),
            ({"trainers": None}, "trainers"),
            ({"perturbation_b_over_pi": 0.5}, "perturbation_b_over_pi"),
            ({"cmaes": {"sigma_sweep": None}}, "sigma_sweep"),
            ({"cmaes": {"sigma_sweep": 0.1}}, "sigma_sweep"),
            ({"cmaes": {"sigma_sweep": []}}, "sigma_sweep"),
            ({"perturbation_b_over_pi": []}, "perturbation_b_over_pi needs at least one entry"),
            ({"cmaes": 5}, "cmaes"),
            ({"detector": ["noise_enabled"]}, "detector"),
        ],
        ids=[
            "str", "scalar", "null", "scalar-b", "sweep-null", "sweep-scalar", "sweep-empty", "b-empty",
            "section-int", "section-list",
        ],
    )
    def test_list_keys_and_sections_need_their_shape(self, data, key):
        # A string would split into one-bit headers and a scalar or null would
        # fail later; both are rejected up front, naming the key.
        with pytest.raises(ValueError, match=key):
            config_from_dict(data)

    def test_empty_section_keeps_base(self):
        # A YAML section whose keys are all commented out loads as null.
        assert config_from_dict({"cmaes": None}, base=ci_profile()) == ci_profile()

    def test_default_sigma_sweep_is_explicit(self):
        cfg = paper_profile()
        assert cfg.cmaes.sigma_sweep == DEFAULT_SIGMA_SWEEP
        assert config_to_dict(cfg)["cmaes"]["sigma_sweep"] == list(DEFAULT_SIGMA_SWEEP)
        assert config_from_dict({"cmaes": {"sigma_sweep": [0.1, 1]}}).cmaes.sigma_sweep == (0.1, 1)

    @pytest.mark.parametrize("headers", [(), ("1x1",), ("101", "")])
    def test_headers_checked_at_construction(self, headers):
        with pytest.raises(ValueError, match="header"):
            replace(ci_profile(), headers=headers)

    @pytest.mark.parametrize(
        "headers, bad",
        [(("101", " 101"), " 101"), (("101", "101 "), "101 "), (("101", "\uff11\uff10\uff11"), "\uff11\uff10\uff11")],
        ids=["leading-space", "trailing-space", "full-width"],
    )
    def test_second_spelling_of_a_header_rejected(self, headers, bad):
        # each would train header 101 under another name in the records
        message = f"invalid header string {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=message):
            replace(ci_profile(), headers=headers)
        with pytest.raises(ValueError, match=message):
            config_from_dict({"headers": list(headers)})

    @pytest.mark.parametrize("header", [1, None, b"101"], ids=["int", "none", "bytes"])
    def test_non_string_header_rejected(self, header):
        with pytest.raises(ValueError, match=f"headers entries must be strings, got {re.escape(repr(header))}"):
            replace(ci_profile(), headers=("101", header))

    @pytest.mark.parametrize(
        "key, values",
        [
            ("bitrates_gbps", ()),
            ("bitrates_gbps", (5.0, 10.0, 5)),
            ("headers", ("101", "110", "101")),
            ("trainers", ()),
            ("trainers", ("ridge", "nlinv", "ridge")),
            ("perturbation_b_over_pi", (0.0, 0.5, 0.5)),
        ],
        ids=[
            "bitrates-empty", "bitrates-repeated", "headers-repeated", "trainers-empty", "trainers-repeated",
            "b-repeated",
        ],
    )
    def test_empty_or_repeated_list_rejected(self, key, values):
        # A repeated entry would run a cell twice and count it as two.
        with pytest.raises(ValueError, match=key):
            replace(ci_profile(), **{key: values})

    def test_int_bitrates_become_floats(self):
        cfg = config_from_dict({"bitrates_gbps": [10], "perturbation_bitrate_gbps": 5})
        assert type(cfg.bitrates_gbps[0]) is float
        assert type(cfg.perturbation_bitrate_gbps) is float

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

    def test_bad_header_fails_before_simulation(self, tmp_path, capsys, monkeypatch):
        # A configuration the checks reject ends as an argparse error line
        # with exit status 2, not as a traceback.
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the header was checked")

        monkeypatch.setattr(harness_mod, "simulate", no_simulation)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *_cli_args(tmp_path, "--header", "1x1")])
        assert exc.value.code == 2
        assert "photonrc sweep: error: invalid header string '1x1'" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_header_with_whitespace_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        # " 101" used to train header 101 and write " 101" to records.csv
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the header was checked")

        monkeypatch.setattr(harness_mod, "simulate", no_simulation)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *_cli_args(tmp_path, "--header", " 101")])
        assert exc.value.code == 2
        assert "photonrc sweep: error: invalid header string ' 101'" in capsys.readouterr().err
        assert not (tmp_path / "records.csv").exists()

    # A key the configuration never had, then the keys that took one value
    # everywhere and are now constants, each set to that value: an old
    # configuration fails loudly instead of running with a value ignored.
    UNKNOWN_KEYS = [
        ("bogus: 1\n", "unknown config keys: ['bogus']"),
        ("warmup_bits: 10\n", "unknown config keys: ['warmup_bits']"),
        ("samples_per_bit: 24\n", "unknown config keys: ['samples_per_bit']"),
        ("search_bits: 2\n", "unknown config keys: ['search_bits']"),
        ("ber_floor_errors: 10\n", "unknown config keys: ['ber_floor_errors']"),
        ("convergence_bitrate_gbps: 10.0\n", "unknown config keys: ['convergence_bitrate_gbps']"),
        ("smoothing: auto\n", "unknown config keys: ['smoothing']"),
        ("reservoir: {delay_s: 62.5e-12}\n", "unknown ReservoirSettings keys: ['delay_s']"),
        ("reservoir: {loss_db_per_cm: 3.0}\n", "unknown ReservoirSettings keys: ['loss_db_per_cm']"),
        ("reservoir: {group_index: 4.2}\n", "unknown ReservoirSettings keys: ['group_index']"),
    ]

    @pytest.mark.parametrize("yaml_text, message", UNKNOWN_KEYS, ids=[m.split("'")[1] for _, m in UNKNOWN_KEYS])
    def test_unknown_yaml_key_is_a_usage_error(self, tmp_path, capsys, monkeypatch, yaml_text, message):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated with an unknown key")

        monkeypatch.setattr(harness_mod, "simulate", no_simulation)
        path = tmp_path / "old.yaml"
        path.write_text(yaml_text)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *_cli_args(tmp_path, "--config", str(path))])
        assert exc.value.code == 2
        assert f"photonrc sweep: error: {message}" in capsys.readouterr().err

    def test_non_number_yaml_float_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("detector: {bandwidth_hz: wide}\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *_cli_args(tmp_path, "--config", str(path))])
        assert exc.value.code == 2
        assert "photonrc sweep: error: bandwidth_hz must be a number, got 'wide'" in capsys.readouterr().err

    def test_non_integer_count_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the count was checked")

        monkeypatch.setattr(harness_mod, "simulate", no_simulation)
        path = tmp_path / "two.yaml"
        path.write_text("n_perturbation_draws: two\n")
        with pytest.raises(SystemExit) as exc:
            main(["perturb", "--profile", "ci", "--config", str(path), "--out", str(tmp_path), "--quiet"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "photonrc perturb: error: n_perturbation_draws must be an integer, got 'two'" in err

    @pytest.mark.parametrize("command", ["perturb", "converge"])
    def test_study_with_two_headers_is_a_usage_error(self, tmp_path, capsys, monkeypatch, command):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the headers were checked")

        monkeypatch.setattr(harness_mod, "simulate", no_simulation)
        path = tmp_path / "two.yaml"
        path.write_text('headers: ["101", "110"]\n')
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--profile", "ci", "--config", str(path), "--out", str(out), "--quiet"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"photonrc {command}: error: this study trains on one header, got 2: 101, 110" in err
        assert not out.exists()

    @pytest.mark.parametrize("headers", ['["1111"]', '["101", "110"]', '["000"]'])
    def test_headers_command_with_configured_headers_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, headers
    ):
        # The command trains all eight 3-bit headers; it would replace these in silence.
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the headers were checked")

        monkeypatch.setattr(harness_mod, "simulate", no_simulation)
        path = tmp_path / "headers.yaml"
        path.write_text(f"headers: {headers}\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["headers", "--profile", "ci", "--config", str(path), "--out", str(out), "--quiet"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "photonrc headers: error: headers is set by this command" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-0.1", ".nan", ".inf"], ids=["negative", "nan", "inf"])
    def test_bad_perturbation_b_is_a_usage_error(self, tmp_path, capsys, monkeypatch, value):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the perturbations were checked")

        monkeypatch.setattr(harness_mod, "simulate", no_simulation)
        path = tmp_path / "b.yaml"
        path.write_text(f"perturbation_b_over_pi: [0.0, {value}]\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["perturb", "--profile", "ci", "--seeds", "1", "--config", str(path), "--out", str(out), "--quiet"])
        assert exc.value.code == 2
        assert "photonrc perturb: error: perturbation_b_over_pi" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "yaml_text, flags, message",
        [
            ('detector: {noise_enabled: "off"}\n', [], "noise_enabled must be true or false, got 'off'"),
            ("reservoir: {topology_file: 5}\n", [], "topology_file must be a string or null, got 5"),
            ("", ["--bitrates", "inf"], "bitrates must be positive and finite, got inf"),
            ("p_total_w: .inf\n", [], "p_total_w must be positive and finite, got inf"),
            ("detector: {temperature_k: .inf}\n", [], "temperature must be positive and finite, got inf"),
            # YAML reads 001 as the integer 1, which used to train the header
            # "1", and 010 as the octal 8, which used to fail as the header "8"
            ("headers: [001]\n", [], "headers entries must be quoted strings, got [1]"),
            ("headers: [010]\n", [], "headers entries must be quoted strings, got [8]"),
            ("headers: [101]\n", [], "headers entries must be quoted strings, got [101]"),
            # a one-row swirl used to end in a traceback inside the first cell
            ("reservoir: {rows: 1}\n", [], "reservoir.rows must be at least 2, got 1"),
            ("reservoir: {cols: 1}\n", [], "reservoir.cols must be at least 2, got 1"),
        ],
        ids=[
            "noise-off-string", "topology-int", "bitrates-inf", "power-inf", "temperature-inf",
            "headers-001", "headers-010", "headers-101", "rows-1", "cols-1",
        ],
    )
    def test_wrongly_typed_or_infinite_setting_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, yaml_text, flags, message
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the settings were checked")

        monkeypatch.setattr(harness_mod, "simulate", no_simulation)
        path = tmp_path / "bad.yaml"
        path.write_text(yaml_text)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--profile", "ci", "--config", str(path), *flags, "--out", str(out), "--quiet"])
        assert exc.value.code == 2
        assert f"photonrc sweep: error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", ".nan", ".inf"], ids=["zero", "negative", "nan", "inf"])
    def test_bad_sigma_sweep_is_a_usage_error(self, tmp_path, capsys, monkeypatch, value):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the step sizes were checked")

        monkeypatch.setattr(harness_mod, "simulate", no_simulation)
        path = tmp_path / "sigma.yaml"
        path.write_text(f"cmaes: {{sigma_sweep: [0.1, {value}]}}\n")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *_cli_args(tmp_path, "--trainer", "cmaes", "--config", str(path))])
        assert exc.value.code == 2
        assert "photonrc sweep: error: cmaes.sigma_sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("nodes 2\nedge 0 1 inf 0.5 0.1\ninput 0 0.0\n", "edge delays must be positive and finite, got inf"),
            ("nodes 2\nedge 0 1 1e-11 0.5 0.1\n", "topology has no input ports"),
            ("nodes 2\nedge 0 1 1e-11 0.5 0.1 junk\ninput 0 0.0\n", "'edge' takes 5 fields, got 6"),
            (None, "cannot be read: No such file or directory"),
        ],
        ids=["inf-delay", "no-inputs", "trailing-field", "missing"],
    )
    def test_bad_topology_file_is_a_usage_error(self, tmp_path, capsys, monkeypatch, text, message):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the topology file was checked")

        monkeypatch.setattr(harness_mod, "simulate", no_simulation)
        topo = tmp_path / "net.topo"
        if text is not None:
            topo.write_text(text)
        path = tmp_path / "topo.yaml"
        path.write_text(yaml.safe_dump({"reservoir": {"topology_file": str(topo)}}))
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *_cli_args(tmp_path, "--config", str(path))])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "photonrc sweep: error: reservoir.topology_file" in err and message in err
        assert not (tmp_path / "records.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--bitrate", "-5", "argument --bitrate: must be a positive finite number, got '-5'"),
            ("--bitrate", "0", "argument --bitrate: must be a positive finite number, got '0'"),
            ("--bitrate", "inf", "argument --bitrate: must be a positive finite number, got 'inf'"),
            ("--instance", "-1", "argument --instance: must be a whole number of at least 0, got '-1'"),
        ],
        ids=["bitrate-negative", "bitrate-zero", "bitrate-inf", "instance-negative"],
    )
    def test_probe_dump_bad_cell_is_a_usage_error(self, tmp_path, capsys, flag, value, message):
        with pytest.raises(SystemExit) as exc:
            main(["probe-dump", "--profile", "ci", "--out", str(tmp_path), "--quiet", flag, value])
        assert exc.value.code == 2
        assert f"photonrc probe-dump: error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "probes.csv").exists()

    @pytest.mark.parametrize(
        "args, message",
        [
            (["sweep", "--bitrates", "5,5"], "photonrc sweep: error: bitrates_gbps must not repeat"),
            (["sweep", "--bitrates", ","], "photonrc sweep: error: bitrates_gbps needs at least one entry"),
            (["sweep", "--trainer", "ridge", "ridge"], "photonrc sweep: error: trainers must not repeat"),
            (["probe-dump", "--config", "empty.yaml"], "photonrc probe-dump: error: bitrates_gbps needs"),
            (
                ["perturb", "--seeds", "1", "--config", "no_b.yaml"],
                "photonrc perturb: error: perturbation_b_over_pi needs at least one entry",
            ),
            (
                ["perturb", "--seeds", "1", "--config", "repeated_b.yaml"],
                "photonrc perturb: error: perturbation_b_over_pi must not repeat an entry, got [0.5, 0.5]",
            ),
        ],
        ids=[
            "sweep-repeated-bitrate", "sweep-no-bitrate", "sweep-repeated-trainer", "probe-dump-no-bitrate",
            "perturb-no-b", "perturb-repeated-b",
        ],
    )
    def test_empty_or_repeated_list_is_a_usage_error(self, tmp_path, capsys, monkeypatch, args, message):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the lists were checked")

        monkeypatch.setattr(harness_mod, "simulate", no_simulation)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty.yaml").write_text("bitrates_gbps: []\n")
        (tmp_path / "no_b.yaml").write_text("perturbation_b_over_pi: []\n")
        (tmp_path / "repeated_b.yaml").write_text("perturbation_b_over_pi: [0.5, 0.5]\n")
        with pytest.raises(SystemExit) as exc:
            main([*args, "--profile", "ci", "--out", str(tmp_path / "run"), "--quiet"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    # Every overlay flag that a command does not read, with a value it would take.
    IGNORED_FLAGS = [
        ("headers", "--header"),
        ("perturb", "--trainer"),
        ("perturb", "--bitrates"),
        ("converge", "--trainer"),
        ("converge", "--bitrates"),
        ("converge", "--seeds"),
        ("probe-dump", "--trainer"),
        ("probe-dump", "--header"),
        ("probe-dump", "--seeds"),
        ("probe-dump", "--bitrates"),
    ]
    FLAG_VALUES = {"--trainer": "ridge", "--bitrates": "10", "--header": "101", "--seeds": "1"}

    @pytest.mark.parametrize("command, flag", IGNORED_FLAGS, ids=[f"{c}{f}" for c, f in IGNORED_FLAGS])
    def test_flag_the_command_does_not_read_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch, command, flag
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError(f"{command} ran with {flag}")

        monkeypatch.setattr(harness_mod, "simulate", no_simulation)
        value = self.FLAG_VALUES[flag]
        with pytest.raises(SystemExit) as exc:
            main([command, "--profile", "ci", flag, value, "--out", str(tmp_path), "--quiet"])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, offered",
        [
            ("sweep", {"--trainer", "--bitrates", "--header", "--seeds"}),
            ("headers", {"--trainer", "--bitrates", "--seeds"}),
            ("perturb", {"--header", "--seeds"}),
            ("converge", {"--header"}),
            ("probe-dump", {"--bitrate"}),
        ],
    )
    def test_each_command_offers_the_overlays_it_reads(self, capsys, command, offered):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--(?:trainer|bitrates?|header|seeds)\b", capsys.readouterr().out))
        assert flags == offered

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
        # the reference of every couple is the bias line, the last of 17 channels
        couples = [row.split(",") for row in probes[1:] if row.split(",")[1] != "modulus"]
        assert len(couples) == 2 * 16
        assert all("16" in row[2].split(";") for row in couples)
        states = (tmp_path / "probes" / "estimated_states.csv").read_text().splitlines()
        assert states[0] == "n,channel,re,im"

    def test_probe_dump_simulates_the_training_input_only(self, tmp_path, monkeypatch):
        calls = []
        real_simulate = harness_mod.simulate

        def counting_simulate(*a, **kw):
            calls.append(1)
            return real_simulate(*a, **kw)

        monkeypatch.setattr(harness_mod, "simulate", counting_simulate)
        args = ["probe-dump", "--profile", "ci", "--config", str(_tiny_config(tmp_path))]
        assert main(args + ["--bitrate", "10", "--out", str(tmp_path / "probes"), "--quiet"]) == 0
        assert len(calls) == 1

    def test_probe_dump_exports_the_nlinv_round(self, tmp_path, monkeypatch):
        # The export is the probing round the nlinv trainer trains on, written
        # as plain numbers.  The dump itself fits nothing.
        fits = []
        real_cv_alpha = harness_mod.cv_alpha

        def counting_cv_alpha(*a, **kw):
            fits.append(1)
            return real_cv_alpha(*a, **kw)

        monkeypatch.setattr(harness_mod, "cv_alpha", counting_cv_alpha)
        cfg_file = _tiny_config(tmp_path)
        out = tmp_path / "probes"
        args = ["probe-dump", "--profile", "ci", "--config", str(cfg_file), "--bitrate", "10"]
        assert main(args + ["--out", str(out), "--quiet"]) == 0
        assert fits == []

        rounds = []
        real_round = harness_mod._nlinv_round

        def recording_round(*a, **kw):
            rounds.append(real_round(*a, **kw))
            return rounds[-1]

        monkeypatch.setattr(harness_mod, "_nlinv_round", recording_round)
        cfg = load_config(cfg_file, base=ci_profile())
        record = harness_mod.run_single(cfg, 10.0, cfg.headers[0], "nlinv")
        assert record.presentations == 3 * 17 - 2
        assert fits == [1]
        (estimated,) = rounds

        rows = [line.split(",") for line in (out / "estimated_states.csv").read_text().splitlines()[1:]]
        n, f = estimated.samples.shape
        assert [(int(r[0]), int(r[1])) for r in rows] == [(i, c) for i in range(n) for c in range(f)]
        assert {len(r) for r in rows} == {4}
        re = np.array([float(r[2]) for r in rows]).reshape(n, f)
        im = np.array([float(r[3]) for r in rows]).reshape(n, f)
        assert (re == estimated.samples.real).all()
        assert (im == estimated.samples.imag).all()

    def test_probe_dump_states_file_is_the_whole_matrix_writer(self, tmp_path, monkeypatch):
        # Written a row chunk at a time (several chunks and a short tail at
        # ci length), the file has the bytes of one format call per sample
        # row over the whole matrix as Python lists.
        rounds = []
        real_round = harness_mod._nlinv_round

        def recording_round(*a, **kw):
            rounds.append(real_round(*a, **kw))
            return rounds[-1]

        monkeypatch.setattr(harness_mod, "_nlinv_round", recording_round)
        out = tmp_path / "probes"
        assert main(["probe-dump", "--profile", "ci", "--bitrate", "10", "--out", str(out), "--quiet"]) == 0
        (estimated,) = rounds
        n, f = estimated.samples.shape
        assert n > 2 * cli_mod._DUMP_ROWS and n % cli_mod._DUMP_ROWS

        row = "".join(f"{{0}},{ch},{{{1 + ch}!r}},{{{1 + f + ch}!r}}\n" for ch in range(f))
        re, im = estimated.samples.real.tolist(), estimated.samples.imag.tolist()
        want = "n,channel,re,im\n" + "".join(row.format(i, *r, *j) for i, (r, j) in enumerate(zip(re, im)))
        assert (out / "estimated_states.csv").read_bytes() == want.encode()

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
        with open(tmp_path / "hdrs" / "records.csv") as fh:
            headers = [r["header"] for r in csv.DictReader(fh)]
        # one record per 3-bit pattern, whatever headers the profile names
        assert headers == ["000", "001", "010", "011", "100", "101", "110", "111"]

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

import csv
import hashlib
import io
import json
import logging

import pytest

from hdcow.cli import main
from hdcow.config import default_config, load_config, parse_config
from hdcow.errors import InvalidArgumentError
from hdcow.security import holevo_ae, holevo_oracle, x_interval


class TestConfig:
    def test_defaults_validate(self):
        config = default_config()
        assert config.protocol.dimensions == (2, 4, 8, 16, 32)
        assert config.physical_params().tau == 2e-9

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unknown top-level"):
            parse_config({"sead": 1})

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(InvalidArgumentError, match="unknown keys"):
            parse_config({"physical": {"mu": 0.05, "extinction": 0.01}})

    def test_bad_axis_rejected(self):
        with pytest.raises(InvalidArgumentError, match="axis"):
            parse_config({"threshold": {"axis": "sideways"}})

    def test_empty_dimensions_rejected(self):
        with pytest.raises(InvalidArgumentError):
            parse_config({"protocol": {"dimensions": []}})

    def test_table_noise_requires_all_dimensions(self):
        with pytest.raises(InvalidArgumentError, match="lacks entries"):
            parse_config(
                {
                    "protocol": {"dimensions": [2, 4]},
                    "noise": {"model": "table", "table": [{"d": 2, "q": 0.004, "v": 0.99}]},
                }
            )

    def test_table_noise_round_trip(self):
        config = parse_config(
            {
                "protocol": {"dimensions": [2]},
                "noise": {
                    "model": "table",
                    "table": [{"d": 2, "q": 0.005, "v": 0.98}],
                },
            }
        )
        model = config.noise_model()
        assert model.q(2) == 0.005
        assert model.v(2) == 0.98

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 99, "sweep": {"mu_steps": 7}}))
        config = load_config(str(path))
        assert config.seed == 99
        assert len(config.mu_grid()) == 7


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.json"
    path.write_text(
        json.dumps(
            {
                "seed": 5,
                "protocol": {"dimensions": [2, 4, 8]},
                "sweep": {"mu_min": 0.02, "mu_max": 0.25, "mu_steps": 16},
                "session": {"d": 4, "n": 16, "blocks": 5},
                "physical": {"mu": 0.08, "t_ch": 1.0, "t_dead": 0.0},
            }
        )
    )
    return str(path)


class TestCli:
    def test_rates_csv_format(self, capsys, fast_config):
        assert main(["rates", "--config", fast_config]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "d,mu,bits_per_detection,alpha,bits_per_second"
        assert len(lines) == 1 + 3 * 16
        first = lines[1].split(",")
        assert first[0] == "2"

    def test_rates_deterministic(self, capsys, fast_config):
        main(["rates", "--config", fast_config])
        first = capsys.readouterr().out
        main(["rates", "--config", fast_config])
        second = capsys.readouterr().out
        assert first == second

    def test_rates_json(self, capsys, fast_config):
        main(["rates", "--config", fast_config, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert {"rows", "optimum", "gain_over_d2"} <= set(payload)

    def test_empty_dimension_list_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"protocol": {"dimensions": []}}))
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--config", str(path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["threshold", "rates", "simulate"])
    @pytest.mark.parametrize(
        "raw, key",
        [
            ({"session": {"sample_fraction": 0.4}}, "session.sample_fraction"),
            ({"session": {"sample_fraction": 1.5}}, "session.sample_fraction"),
            ({"session": {"blocks": 0}}, "session.blocks"),
            ({"session": {"d": 1}}, "session.d"),
            ({"session": {"n": 0}}, "session.n"),
            ({"protocol": {"tau": 0}}, "protocol.tau"),
            # SESSION_START carries d as u16: rates ran, simulate failed mid-session
            ({"session": {"d": 70000, "n": 1, "blocks": 1}}, "session.d"),
            # and n as u32 (simulate drew a 2**32-symbol train first) and tau
            # as u64 picoseconds
            ({"session": {"n": 2**32}}, "session.n"),
            ({"session": {"n": 2**32, "blocks": 1}}, "session.n"),
            # d*n slots per block, as u32 reveal indices and monitor slots:
            # simulate allocated 2**32-slot buffers before the reveal refused
            ({"session": {"d": 2, "n": 2**31, "blocks": 1}}, "session.n"),
            ({"protocol": {"tau": 1e8}}, "protocol.tau"),
            # 0 whole picoseconds: simulate sent that and printed 5.1e8 bit/s
            ({"protocol": {"tau": 1e-13}}, "protocol.tau"),
        ],
    )
    def test_bad_session_section_is_usage_error(self, tmp_path, capsys, command, raw, key):
        # the session section is checked at load, not only by simulate
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        assert f"error: {key}=" in capsys.readouterr().err

    def test_protocol_n_is_an_unknown_key(self, tmp_path, capsys):
        # the session's qudit count is session.n; protocol.n was never read,
        # so simulate ran at n=64 whatever it said
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"protocol": {"n": 4096}}))
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(path)])
        assert exc.value.code == 2
        assert "error: protocol: unknown keys ['n']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "rates", "threshold", "optimize"])
    @pytest.mark.parametrize(
        "raw, field",
        [
            ('{"threshold": {"mu": NaN, "visibility": 7}}', "threshold.mu"),
            ('{"threshold": {"mu": 0}}', "threshold.mu"),
            # a session with no light: simulate ran it all, then failed unnamed
            ('{"physical": {"mu": 0}}', "physical.mu"),
            # refused when the channel parameters are built, with the key named
            ('{"physical": {"mu": -0.05}}', "physical.mu"),
            ('{"physical": {"t_ch": 2}}', "physical.t_ch"),
            ('{"physical": {"xi": 0}}', "physical.xi"),
            ('{"physical": {"t_dead": -1e-9}}', "physical.t_dead"),
            ('{"physical": {"p_dc": 1.5}}', "physical.p_dc"),
            ('{"physical": {"r_ext": -0.01}}', "physical.r_ext"),
            ('{"physical": {"visibility": 1.5}}', "physical.visibility"),
            ('{"threshold": {"visibility": 7}}', "threshold.visibility"),
            # 1/(d-1) for the largest default dimension, d=32
            ('{"noise": {"q_slot": 0.5}}', "noise.q_slot"),
            ('{"noise": {"q_slot": 0.0323}}', "noise.q_slot"),
            # a sweep end that is not finite, or ends in the wrong order
            ('{"sweep": {"mu_max": Infinity}}', "sweep.mu_max"),
            ('{"sweep": {"mu_min": NaN}}', "sweep.mu_min"),
            ('{"sweep": {"mu_min": 0}}', "sweep.mu_min"),
            ('{"sweep": {"mu_min": 0.3, "mu_max": 0.1}}', "sweep.mu_max"),
            ('{"sweep": {"mu_steps": 0}}', "sweep.mu_steps"),
            # a repeated dimension: rates printed its block twice
            ('{"protocol": {"dimensions": [4, 2, 2]}}', "protocol.dimensions"),
            ('{"threshold": {"dimensions": [4, 4]}}', "threshold.dimensions"),
        ],
    )
    def test_bad_threshold_or_noise_section_is_usage_error(
        self, tmp_path, capsys, command, raw, field
    ):
        # checked at load, so a command that does not read the field refuses it too
        path = tmp_path / "bad.json"
        path.write_text(raw)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        assert f"error: {field}=" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rates", "simulate"])
    @pytest.mark.parametrize(
        "raw, field",
        [
            # a float, a bool or a string is never truncated or coerced
            ({"sweep": {"mu_steps": 2.5}}, "sweep.mu_steps"),
            ({"sweep": {"mu_steps": 120.0}}, "sweep.mu_steps"),
            ({"session": {"blocks": 2.7}}, "session.blocks"),
            ({"session": {"blocks": True}}, "session.blocks"),
            ({"session": {"d": "8"}}, "session.d"),
            ({"physical": {"mu": "0.1"}}, "physical.mu"),
            ({"physical": {"mu": True}}, "physical.mu"),
            ({"physical": {"t_dead": None}}, "physical.t_dead"),
            ({"sweep": {"mu_steps": "7"}}, "sweep.mu_steps"),
            ({"threshold": {"axis": 3}}, "threshold.axis"),
            ({"noise": {"model": ["table"]}}, "noise.model"),
            ({"physical": {"xi": 10**400}}, "physical.xi"),
            ({"seed": True}, "config.seed"),
            ({"seed": -3}, "config.seed"),
            ({"threshold": {"dimensions": ["x"]}}, "threshold.dimensions"),
            # a section, the root or a list of the wrong shape
            ({"physical": 3}, "physical: expected an object"),
            ({"sweep": [1]}, "sweep: expected an object"),
            ([{"seed": 1}], "config root must be an object"),
            ({"protocol": {"dimensions": 4}}, "protocol.dimensions: expected a list"),
        ],
    )
    def test_wrong_type_is_usage_error(self, tmp_path, capsys, command, raw, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {field}" in captured.err

    def test_integer_accepted_for_float_field(self, tmp_path, capsys):
        # a JSON integer is a number: t_dead 0 reads as 0.0
        outputs = []
        for t_dead in ("0", "0.0"):
            path = tmp_path / f"t_dead_{t_dead}.json"
            path.write_text('{"physical": {"t_dead": %s}, "sweep": {"mu_steps": 5}}' % t_dead)
            assert main(["rates", "--config", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    _TABLE_DIMS = {"protocol": {"dimensions": [2, 4]}}

    @pytest.mark.parametrize("command", ["rates", "simulate"])
    @pytest.mark.parametrize(
        "rows, where",
        [
            ([{"d": 2, "q": 0.01, "v": 0.9}, 4], "noise.table[1]: expected an object"),
            ([{"d": 2, "q": 0.01, "v": 0.9}, {"d": 4, "q": 0.01}],
             "noise.table[1]: keys"),
            ([{"q": 0.01, "v": 0.9}, {"d": 4, "q": 0.01, "v": 0.9}],
             "noise.table[0]: keys"),
            ([{"d": 2, "q": 0.01, "v": 0.9, "visibility": 0.9},
              {"d": 4, "q": 0.01, "v": 0.9}], "noise.table[0]: keys"),
            ([{"d": 2, "q": 0.01, "v": 0.9}, {"d": 4, "q": 0.01, "v": 0.9},
              {"d": 2, "q": 0.02, "v": 0.8}], "noise.table[2]: d=2 repeats"),
            ([{"d": 2.0, "q": 0.01, "v": 0.9}, {"d": 4, "q": 0.01, "v": 0.9}],
             "noise.table[0].d"),
            ([{"d": 2, "q": "0.01", "v": 0.9}, {"d": 4, "q": 0.01, "v": 0.9}],
             "noise.table[0].q"),
            ([{"d": 2, "q": 0.01, "v": 0.9}, {"d": 4, "q": 0.5, "v": 0.9}],
             "noise.table[1].q="),
            ([{"d": 2, "q": 0.01, "v": 1.5}, {"d": 4, "q": 0.01, "v": 0.9}],
             "noise.table[0].v="),
        ],
    )
    def test_malformed_table_row_is_usage_error(
        self, tmp_path, capsys, command, rows, where
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {**self._TABLE_DIMS, "noise": {"model": "table", "table": rows}}
        ))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {where}" in captured.err

    # sha256 of the default tables.  Both print 12 significant digits, so
    # a last-bit difference of a platform's libm does not reach them; a
    # changed digest means the model's output changed.
    _DEFAULT_TABLE_SHA256 = {
        "rates": "e2ea57210efa5a2cf7ddba0768a5f371a4c99c32cb2ad0699f50cc5fa627caf1",
        "threshold": "25395cca1feca5715d3f0bdaa7c68f0ed720249cad0ee3fa7d0603361edc4a24",
    }

    @pytest.mark.parametrize("command", sorted(_DEFAULT_TABLE_SHA256))
    def test_default_table_pinned(self, capsys, command):
        assert main([command]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self._DEFAULT_TABLE_SHA256[command]

    # sha256 of stdout.  holevo prints full-precision floats in JSON, so a
    # last-bit change of either bound or the secure fraction moves them.
    _HOLEVO_DEFAULT = ["holevo", "--d", "4", "--q", "0.01", "--mu", "0.1"]
    _HOLEVO_DEFAULT_SHA256 = "67a5da8355b4be44881c9844853a5d3f93842909e9f66f987721a3c8f621cafa"
    _STDOUT_SHA256 = [
        (_HOLEVO_DEFAULT, _HOLEVO_DEFAULT_SHA256),
        (_HOLEVO_DEFAULT + ["--format", "csv"],
         "32a2b66563344ec038ae3ee62956899b3af2cd41b561946abb4130186d24e7ad"),
        (_HOLEVO_DEFAULT + ["--x", "0.95"],
         "d2a8d8a7e358f2ff4436f4ae2f602cfdd52238c394bd61dbdd28fcf709de4f47"),
        (_HOLEVO_DEFAULT + ["--format", "csv", "--x", "0.95"],
         "25ebaba7b7a73c8fa7a14df4667510d55522a3d8a43571d0916dad419d8fc652"),
        (["optimize", "--format", "csv"],
         "8b49c01c6a87fa280ccb7be1a62fdb0dd9d2ebd17b718168075f9295b5b9fc06"),
    ]

    @pytest.mark.parametrize(
        "argv, digest", _STDOUT_SHA256, ids=[" ".join(argv) for argv, _ in _STDOUT_SHA256]
    )
    def test_stdout_pinned(self, capsys, argv, digest):
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_holevo_oracle_stdout_pinned(self, capsys):
        # The oracle's values come from LAPACK, whose last bits vary with
        # the build, so they are checked against a fresh oracle call; the
        # other lines are the pinned output without --oracle.
        assert main(self._HOLEVO_DEFAULT + ["--oracle"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines(keepends=True)
        rest = "".join(line for line in lines if not line.startswith('  "oracle_'))
        assert len(lines) - len(rest.splitlines()) == 3
        assert hashlib.sha256(rest.encode()).hexdigest() == self._HOLEVO_DEFAULT_SHA256
        payload = json.loads(out)
        oracle_ae, oracle_be = holevo_oracle(4, 0.01, 0.1, payload["x_star"])
        assert (payload["oracle_chi_ae"], payload["oracle_chi_be"]) == (oracle_ae, oracle_be)
        assert payload["oracle_max_abs_diff"] == max(
            abs(oracle_ae - payload["chi_ae"]), abs(oracle_be - payload["chi_be"])
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["holevo", "--d", "4", "--q", "0.01", "--mu", "nan"],
            ["holevo", "--d", "4", "--q", "0.01", "--mu", "inf"],
            ["holevo", "--d", "4", "--q", "0.01", "--mu", "nan", "--x", "0.5"],
            ["threshold", "--mu", "nan"],
            ["threshold", "--mu", "inf", "--format", "json"],
        ],
    )
    def test_non_finite_mu_is_usage_error(self, capsys, argv):
        # refused with the field named, never turned into a key or a crash
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: mu=" in captured.err

    @pytest.mark.parametrize("command", ["simulate", "rates", "threshold"])
    @pytest.mark.parametrize("physical", ['{"mu": NaN}', '{"t_dead": Infinity}'])
    def test_non_finite_physical_field_is_usage_error(
        self, tmp_path, capsys, command, physical
    ):
        path = tmp_path / "bad.json"
        path.write_text('{"physical": %s}' % physical)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        field = physical.split('"')[1]
        assert f"error: physical.{field}=" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rates", "simulate"])
    @pytest.mark.parametrize(
        "text, cause",
        [
            ('{"noise": {"model": "foo"}}', "error: unknown noise model 'foo'"),
            ('{"seed": 1', "bad.json: not valid JSON ("),
            ("", "bad.json: not valid JSON ("),
        ],
    )
    def test_unknown_noise_model_or_bad_json_is_usage_error(
        self, tmp_path, capsys, command, text, cause
    ):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert cause in captured.err

    def test_one_step_sweep_prints_one_row_per_dimension(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"sweep": {"mu_min": 0.05, "mu_steps": 1}}))
        assert main(["rates", "--config", str(path)]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert [(row[0], row[1]) for row in rows] == [
            (str(d), "0.05") for d in default_config().protocol.dimensions
        ]

    def test_threshold_monotone_decreasing(self, capsys):
        assert main(["threshold"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")[1:]
        values = [float(line.split(",")[1]) for line in lines]
        assert values == sorted(values, reverse=True)

    def test_threshold_axis_flag(self, capsys):
        main(["threshold", "--axis", "total", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["convention"]["axis"] == "total"
        per_d = {row["d"]: row["threshold"] for row in payload["thresholds"]}
        main(["threshold", "--axis", "per_slot", "--format", "json"])
        payload2 = json.loads(capsys.readouterr().out)
        per_d2 = {row["d"]: row["threshold"] for row in payload2["thresholds"]}
        assert per_d[16] == pytest.approx(15 * per_d2[16], rel=1e-9)

    def test_holevo_oracle_agreement(self, capsys):
        # x = 0.8 is admissible at mu = 0.1 only for visibility below about
        # 0.82; the bounds and the oracle do not depend on the visibility.
        assert main(
            ["holevo", "--d", "3", "--q", "0.02", "--mu", "0.1", "--x", "0.8",
             "--visibility", "0.81", "--oracle"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["oracle_max_abs_diff"] < 1e-8

    _HOLEVO_POINT = ["holevo", "--d", "4", "--q", "0.01", "--mu", "0.1",
                     "--visibility", "0.98"]

    def test_holevo_csv_keeps_interval_in_one_cell(self, capsys):
        assert main(self._HOLEVO_POINT + ["--format", "csv"]) == 0
        header, row = csv.reader(io.StringIO(capsys.readouterr().out))
        assert len(row) == len(header)
        cell = row[header.index("x_interval")]
        lo, hi = (float(v) for v in cell.strip("[]").split(","))
        assert (lo, hi) == x_interval(0.1, 0.98)

    def test_holevo_x_outside_interval_is_usage_error(self, capsys):
        lo, hi = x_interval(0.1, 0.98)
        with pytest.raises(SystemExit) as exc:
            main(self._HOLEVO_POINT + ["--x", "0.3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert repr(lo) in err and repr(hi) in err

    def test_holevo_x_inside_interval_accepted(self, capsys):
        lo, hi = x_interval(0.1, 0.98)
        for x in (lo, 0.5 * (lo + hi), hi):
            assert main(self._HOLEVO_POINT + ["--x", repr(x)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["x_star"] == x
            assert payload["chi_ae"] == holevo_ae(4, 0.01, 0.1, x)

    def test_simulate_summary(self, capsys, fast_config):
        assert main(["simulate", "--config", fast_config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transcript_violations"] == []
        assert payload["alice"]["sifted_count"] == payload["bob"]["sifted_count"]
        # SESSION_START, a reveal and a report for the one train (five
        # 64-slot blocks), and Alice's estimate, which ends the session
        assert payload["transcript_messages"] == 2 * 1 + 2

    def test_simulate_rate_uses_the_configured_slot_duration(self, tmp_path, capsys):
        path = tmp_path / "tau.json"
        path.write_text(json.dumps({"protocol": {"tau": 1e-9}, "session": {"blocks": 20}}))
        assert main(["simulate", "--config", str(path)]) == 0
        for summary in json.loads(capsys.readouterr().out).values():
            if isinstance(summary, dict):
                link_seconds = summary["blocks"] * summary["d"] * summary["n"] * 1e-9
                assert summary["detected_rate_per_s"] * link_seconds == pytest.approx(
                    summary["sifted_count"], rel=1e-9
                )

    @pytest.mark.parametrize("command", ["rates", "simulate"])
    def test_negative_seed_option_is_usage_error(self, capsys, command):
        # numpy refused it mid-session with a traceback, and rates took it
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "-1"])
        assert exc.value.code == 2
        assert "error: config.seed=-1 must be an integer >= 0" in capsys.readouterr().err

    def test_out_writes_file(self, tmp_path, fast_config):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--config", fast_config, "--out", str(out)]) == 0
        assert out.read_text().startswith("d,mu,")

    def test_optimize_reports_gain(self, capsys, fast_config):
        assert main(["optimize", "--config", fast_config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gain_over_d2"] > 0
        assert payload["optimum"]["d"] in (2, 4, 8)

    @staticmethod
    def optimize_warnings(tmp_path, capsys, caplog, config, command="optimize"):
        """The JSON of ``hdcow optimize`` (or of ``hdcow rates``) and the
        warnings it logged."""
        argv = [command, "--format", "json"]
        if config is not None:
            path = tmp_path / "optimize.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        with caplog.at_level(logging.WARNING, logger="hdcow"):
            assert main(argv) == 0
        warnings = [r.getMessage() for r in caplog.records
                    if r.name == "hdcow" and r.levelno == logging.WARNING]
        return json.loads(capsys.readouterr().out), warnings

    def test_optimize_default_does_not_warn(self, tmp_path, capsys, caplog):
        # mu = 0.161 inside the grid, mu*t_ch = 0.026
        payload, warnings = self.optimize_warnings(tmp_path, capsys, caplog, None)
        assert warnings == []
        assert 0.005 < payload["optimum"]["mu"] < 0.3
        assert 0.005 < payload["baseline_d2"]["mu"] < 0.3

    def test_optimize_warns_at_grid_edge(self, tmp_path, capsys, caplog):
        # 150 km: the optimum and the d=2 baseline both sit on mu_max
        payload, warnings = self.optimize_warnings(
            tmp_path, capsys, caplog, {"physical": {"t_ch": 0.001}}
        )
        assert payload["optimum"]["mu"] == payload["baseline_d2"]["mu"] == 0.3
        opt = payload["optimum"]["d"]
        assert warnings == [
            f"optimum d={opt} mu=0.3 lies at an end of the mu grid [0.005, 0.3]; "
            "widen the sweep section to locate it",
            "d=2 baseline mu=0.3 lies at an end of the mu grid [0.005, 0.3]; "
            "widen the sweep section to locate it",
        ]

    def test_optimize_warns_above_flux_guard(self, tmp_path, capsys, caplog):
        payload, warnings = self.optimize_warnings(
            tmp_path, capsys, caplog, {"physical": {"t_ch": 1.0}}
        )
        opt = payload["optimum"]
        assert opt["mu"] > 0.1
        assert (
            f"optimum d={opt['d']} mu={opt['mu']:g} gives mu*t_ch = {opt['mu']:.4g}, "
            "above the weak-pulse guard 0.1 of the security analysis"
        ) in warnings
        assert not any("end of the mu grid" in w for w in warnings)

    def rates_warnings(self, tmp_path, capsys, caplog, config):
        """``hdcow rates``'s JSON and its warnings, with the warnings and
        the optimum checked against ``hdcow optimize``'s on the same
        config."""
        payload, warnings = self.optimize_warnings(
            tmp_path, capsys, caplog, config, command="rates"
        )
        caplog.clear()
        optimized, expected = self.optimize_warnings(tmp_path, capsys, caplog, config)
        assert payload["optimum"] == optimized["optimum"]
        assert warnings == expected
        return payload, warnings

    def test_rates_default_does_not_warn(self, tmp_path, capsys, caplog):
        payload, warnings = self.rates_warnings(tmp_path, capsys, caplog, None)
        assert warnings == []
        assert 0.005 < payload["optimum"]["mu"] < 0.3

    def test_rates_warns_at_grid_edge(self, tmp_path, capsys, caplog):
        # 150 km: rates printed an optimum at mu_max and logged nothing
        payload, warnings = self.rates_warnings(
            tmp_path, capsys, caplog, {"physical": {"t_ch": 0.001}}
        )
        assert payload["optimum"]["mu"] == 0.3
        assert warnings[0] == (
            f"optimum d={payload['optimum']['d']} mu=0.3 lies at an end of the mu "
            "grid [0.005, 0.3]; widen the sweep section to locate it"
        )

    def test_rates_warns_above_flux_guard(self, tmp_path, capsys, caplog):
        payload, warnings = self.rates_warnings(
            tmp_path, capsys, caplog, {"physical": {"t_ch": 1.0}}
        )
        opt = payload["optimum"]
        assert opt["mu"] > 0.1
        assert (
            f"optimum d={opt['d']} mu={opt['mu']:g} gives mu*t_ch = {opt['mu']:.4g}, "
            "above the weak-pulse guard 0.1 of the security analysis"
        ) in warnings
        assert not any("end of the mu grid" in w for w in warnings)

import csv
import io
import json

import pytest

from hdcow.cli import main
from hdcow.config import default_config, load_config, parse_config
from hdcow.errors import InvalidArgumentError
from hdcow.security import holevo_ae, x_interval


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
        # five messages per block plus SESSION_START and SESSION_END
        assert payload["transcript_messages"] == 5 * 5 + 2

    def test_out_writes_file(self, tmp_path, fast_config):
        out = tmp_path / "rates.csv"
        assert main(["rates", "--config", fast_config, "--out", str(out)]) == 0
        assert out.read_text().startswith("d,mu,")

    def test_optimize_reports_gain(self, capsys, fast_config):
        assert main(["optimize", "--config", fast_config]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gain_over_d2"] > 0
        assert payload["optimum"]["d"] in (2, 4, 8)

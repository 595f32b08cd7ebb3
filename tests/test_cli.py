import csv
import hashlib
import inspect
import json
import math
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

import normal_vv
from normal_vv import bachelier, cli, density, implied_vol, sabr, vanna_volga
from normal_vv.sabr import SABRFit, SABRParams, sabr_normal_vol

CLI = [sys.executable, "-m", "normal_vv.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, **kwargs
    )


def parse_csv(text):
    return list(csv.DictReader(text.splitlines()))


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(text):
    """`text` parsed as JSON, refusing the NaN and Infinity of Python's `json`."""
    return json.loads(text, parse_constant=_reject_constant)


def write_variant(tmp_path, base, overrides, name="variant.json"):
    """The scenario file `base` with `overrides` applied, written to `tmp_path`."""
    scenario = json.loads(base.read_text())
    scenario.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return path


@pytest.fixture(scope="module")
def scenario1(scenario_dir):
    return str(scenario_dir / "scenario1_smile.json")


@pytest.fixture(scope="module")
def scenario2(scenario_dir):
    return str(scenario_dir / "scenario2_frown.json")


@pytest.fixture(scope="module")
def scenario4(scenario_dir):
    return str(scenario_dir / "scenario4_density_bimodal.json")


class TestPriceCommand:
    def test_atm_record(self):
        result = run_cli(
            "price", "--forward", 0, "--strike", 0, "--expiry", 1, "--df", 1, "--vol", 50
        )
        assert result.returncode == 0
        record = json.loads(result.stdout)
        assert record["price"] == pytest.approx(19.9471140201, rel=1e-11)
        assert record["vega"] == pytest.approx(0.398942280401, rel=1e-11)
        assert record["vanna_forward"] == 0.0
        assert record["volga"] == 0.0

    def test_put_pricing(self):
        result = run_cli(
            "price", "--forward", 10, "--strike", 0, "--expiry", 1,
            "--df", 1, "--vol", 50, "--put",
        )
        record = json.loads(result.stdout)
        call = run_cli(
            "price", "--forward", 10, "--strike", 0, "--expiry", 1, "--df", 1, "--vol", 50
        )
        call_record = json.loads(call.stdout)
        assert call_record["price"] - record["price"] == pytest.approx(10.0, rel=1e-9)

    def test_missing_vol_is_usage_error(self):
        result = run_cli("price", "--forward", 0, "--strike", 0, "--expiry", 1, "--df", 1)
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "command",
        [
            "price --forward nan --strike 0 --expiry 1 --vol 50",
            "price --forward 0 --strike 0 --expiry inf --vol 50",
            "price --forward 0 --strike inf --expiry 1 --vol 50",
            "price --forward 0 --strike 0 --expiry 1 --vol inf",
            "invert --forward 0 --strike 0 --expiry inf --price 10",
            "invert --forward 0 --strike nan --expiry 1 --price 10",
        ],
    )
    def test_nonfinite_option_arguments_are_usage_errors(self, command):
        result = run_cli(*command.split())
        assert result.returncode == 2
        assert result.stdout == ""
        assert "finite" in result.stderr

    def test_zero_discount_warns_about_typo(self):
        result = run_cli(
            "price", "--forward", 0, "--strike", 0, "--expiry", 1, "--df", 0, "--vol", 50
        )
        assert result.returncode == 2
        assert "0 < df <= 1" in result.stderr

    @pytest.mark.parametrize("option", ["--strike", "--forward"])
    def test_negative_e_notation_in_equals_form(self, option, capsys):
        # argparse takes "-1.5e2" after a space for an option name, so a
        # negative value in e-notation is written --option=-1.5e2
        other = "--forward" if option == "--strike" else "--strike"
        outputs = []
        for value in ([f"{option}=-1.5e2"], [option, "-150"]):
            assert cli.main(["price", *value, other, "0", "--expiry", "1", "--vol", "50"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] and outputs[0].out


    def test_overflowing_price_prints_null(self, capsys):
        argv = ["price", "--forward", "0", "--strike", "0", "--expiry", "1e152", "--vol", "1e242"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == "" and strict_json(out)["price"] is None

    def test_vol_times_root_expiry_underflow_is_usage_error(self, capsys):
        argv = ["price", "--forward", "0", "--strike", "1", "--expiry", "1e-305", "--vol", "1e-271"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "invalid input: volatility 1e-271 times sqrt(expiry 1e-305) underflows to 0\n"
        )


class TestInvertCommand:
    def test_round_trips_price_output(self):
        price = json.loads(
            run_cli(
                "price", "--forward", 0, "--strike", -50, "--expiry", 1,
                "--df", 1, "--vol", 51,
            ).stdout
        )["price"]
        result = run_cli(
            "invert", "--price", price, "--forward", 0, "--strike", -50,
            "--expiry", 1, "--df", 1,
        )
        assert result.returncode == 0
        vol = json.loads(result.stdout)["implied_vol"]
        assert vol == pytest.approx(51.0, rel=1e-10)

    def test_atm_branch(self):
        result = run_cli(
            "invert", "--price", 19.947114020071634, "--forward", 0, "--strike", 0,
            "--expiry", 1, "--df", 1,
        )
        assert json.loads(result.stdout)["implied_vol"] == pytest.approx(50.0, rel=1e-12)

    def test_below_intrinsic_is_numerical_failure(self):
        result = run_cli(
            "invert", "--price", 49.0, "--forward", 0, "--strike", -50,
            "--expiry", 1, "--df", 1,
        )
        assert result.returncode == 3
        assert "ArbitrageViolation" in result.stderr

    def test_underflowing_price_is_numerical_failure(self):
        # No vol reprices it: the inverter's vega underflows to zero.
        result = run_cli(
            "invert", "--price", 5e-324, "--forward", 0, "--strike", 100, "--expiry", 1,
        )
        assert result.returncode == 3
        assert json.loads(result.stderr)["error"] == "ArbitrageViolation"

    def test_at_the_money_put_intrinsic_is_positive_zero(self, capsys):
        argv = ["invert", "--forward", "0", "--strike", "0", "--expiry", "1", "--price", "0"]
        assert cli.main([*argv, "--put"]) == 3
        assert capsys.readouterr() == (
            "",
            '{"detail": "price 0.0 does not exceed intrinsic value 0.0 (F=0.0, K=0.0, put)", '
            '"error": "ArbitrageViolation"}\n',
        )


class TestSmileCommands:
    def test_scenario1_grid_shape(self, scenario1):
        result = run_cli("vv-smile", scenario1)
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        strikes_per_curve = 61
        assert len(rows) == 5 * strikes_per_curve
        refs = sorted({row["reference_vol"] for row in rows})
        assert refs == ["40", "45", "50", "55", "60"]
        for row in rows:
            assert row["method"] == "vv-exact"
            assert row["status"] == "ok"

    def test_scenario1_passes_through_pivots(self, scenario1):
        rows = parse_csv(run_cli("vv-smile", scenario1).stdout)
        expected = {"-50": 51.0, "0": 50.0, "50": 52.0}
        for row in rows:
            if row["strike"] in expected:
                assert float(row["vol"]) == pytest.approx(expected[row["strike"]], abs=1e-9)

    def test_scenario2_failures_marked_in_band(self, scenario2):
        result = run_cli("vv-smile", scenario2)
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        failed = [row for row in rows if row["status"] == "failed_below_intrinsic"]
        assert any(abs(float(row["strike"])) >= 100.0 for row in failed)
        for row in failed:
            assert row["vol"] == ""
            assert abs(float(row["strike"])) > 50.0
            assert float(row["reference_vol"]) >= 50.0
        low_ref = [row for row in rows if row["reference_vol"] == "40"]
        assert all(row["status"] == "ok" for row in low_ref)

    def test_sabr_smile_passes_through_pivots(self, scenario1):
        rows = parse_csv(run_cli("sabr-smile", scenario1).stdout)
        assert all(row["method"] == "sabr" for row in rows)
        assert all(row["reference_vol"] == "" for row in rows)
        expected = {"-50": 51.0, "0": 50.0, "50": 52.0}
        for row in rows:
            if row["strike"] in expected:
                assert float(row["vol"]) == pytest.approx(expected[row["strike"]], abs=1e-6)

    def test_sabr_vol_not_positive_is_failed_in_band(
        self, tmp_path, scenario_dir, monkeypatch, capsys
    ):
        # At T = 10 these parameters make the level term
        # 1 + (2 - 3 rho^2) nu^2 T / 24 negative: a SABR vol of -3.01 ATM.
        params = SABRParams(50.0, 1.6, 0.999)
        fit = SABRFit(params, (0.0, 0.0, 0.0), 0.0, True)
        monkeypatch.setattr(cli, "sabr_fit", lambda pivots: fit)
        scenario = json.loads((scenario_dir / "scenario1_smile.json").read_text())
        scenario["expiry"] = 10.0
        path = tmp_path / "long.json"
        path.write_text(json.dumps(scenario))
        assert sabr_normal_vol(params, 0.0, 10.0, 0.0) == pytest.approx(-3.01, abs=5e-3)
        assert cli.main(["compare", str(path)]) == 0
        rows = parse_csv(capsys.readouterr().out)
        sabr = [row for row in rows if row["method"] == "sabr"]
        assert len(sabr) == 61
        assert all(row["vol"] == "" and row["status"] == "failed_negative_vol" for row in sabr)
        assert all(row["status"] == "ok" for row in rows if row["method"] != "sabr")

    def test_compare_concatenates_methods(self, scenario1):
        rows = parse_csv(run_cli("compare", scenario1).stdout)
        methods = {row["method"] for row in rows}
        assert methods == {"vv-exact", "sabr"}
        assert len(rows) == 5 * 61 + 61

    def test_reference_without_pivot_vega_is_numerical_failure(self, tmp_path, scenario_dir):
        scenario = json.loads((scenario_dir / "scenario1_smile.json").read_text())
        scenario["reference_vols"] = [0.5]
        path = tmp_path / "novega.json"
        path.write_text(json.dumps(scenario))
        result = run_cli("vv-smile", str(path))
        assert result.returncode == 3
        payload = json.loads(result.stderr)
        assert payload["error"] == "ZeroVega"
        assert "no vega at reference vol 0.5" in payload["detail"]

    @pytest.mark.parametrize(
        "name, ref, failures",
        [
            pytest.param(name, ref, failures, id=f"{name.split('_')[0]}-{ref:g}")
            for name, ref, failures in [
                *(("scenario1_smile.json", ref, {}) for ref in (40.0, 45.0, 50.0, 55.0, 60.0)),
                ("scenario2_frown.json", 40.0, {}),
                ("scenario2_frown.json", 50.0, {"vv-exact": 18, "vv-second": "NegativeDiscriminant"}),
                ("scenario2_frown.json", 60.0, {"vv-exact": 22, "vv-second": "NegativeDiscriminant"}),
                ("scenario3_density.json", 40.0, {}),
                ("scenario4_density_bimodal.json", 30.0, {}),
            ]
        ],
    )
    def test_vv_rows_equal_the_grid(self, name, ref, failures, tmp_path, scenario_dir, capsys):
        # No golden hash covers vv-first or vv-second rows: each printed row
        # is the vv_smile_grid point at that strike, formatted by the CLI, with
        # the grid's status. Where the grid raises, the CLI exits 3 with its
        # message. `failures` counts the failed points, or names the error.
        found = {}
        for method in vanna_volga.VV_SMILES:
            overrides = {"methods": [method], "reference_vols": [ref]}
            path = write_variant(tmp_path, scenario_dir / name, overrides)
            scenario = cli.load_scenario(str(path))
            try:
                points = vanna_volga.vv_smile_grid(
                    scenario.pivots.with_reference(ref), scenario.strikes(), method
                ).points
            except vanna_volga.NegativeDiscriminant as error:
                found[method] = type(error).__name__
                assert cli.main(["vv-smile", str(path)]) == 3
                payload = {"detail": str(error), "error": found[method]}
                assert capsys.readouterr() == ("", json.dumps(payload, sort_keys=True) + "\n")
                continue
            expected = [cli.SMILE_HEADER] + [
                ",".join((cli._fmt(p.strike), cli._fmt(p.vol), method, cli._fmt(ref), p.status))
                for p in points
            ]
            assert cli.main(["vv-smile", str(path)]) == 0
            assert capsys.readouterr() == ("\n".join(expected) + "\n", "")
            failed = sum(p.status != vanna_volga.STATUS_OK for p in points)
            if failed:
                found[method] = failed
        assert found == failures

    @pytest.mark.parametrize(
        "base, overrides, payload",
        [
            (
                "scenario2_frown.json",
                {
                    "pivots": [
                        {"strike": -50.0, "vol": 45.0},
                        {"strike": 0.0, "vol": 50.0},
                        {"strike": 50.0, "vol": 45.0},
                    ],
                    "reference_vols": [60.0],
                    "grid": {"min": -400.0, "max": 400.0, "step": 5.0},
                    "methods": ["vv-second"],
                },
                '{"detail": "second-order vol undefined at strike -400.0: square-root '
                'argument -1311955.5555555557 is negative", "error": "NegativeDiscriminant"}',
            ),
            (
                "scenario1_smile.json",
                {"reference_vols": [0.5], "methods": ["vv-first"]},
                '{"detail": "pivot -50.0 has no vega at reference vol 0.5", "error": "ZeroVega"}',
            ),
            (
                "scenario1_smile.json",
                {"reference_vols": [0.5], "methods": ["vv-second"]},
                '{"detail": "pivot -50.0 has no vega at reference vol 0.5", "error": "ZeroVega"}',
            ),
            # Pivot d = 38.2: its vega is subnormal, and a hedge weight overflows.
            (
                "scenario1_smile.json",
                {"reference_vols": [1.31]},
                '{"detail": "pivot -50.0 has no vega at reference vol 1.31", "error": "ZeroVega"}',
            ),
            # (v - sigma)^2 of the first pivot overflows a double.
            (
                "scenario1_smile.json",
                {
                    "pivots": [
                        {"strike": -50.0, "vol": 1e238},
                        {"strike": 0.0, "vol": 50.0},
                        {"strike": 50.0, "vol": 52.0},
                    ],
                    "reference_vols": [50.0],
                    "methods": ["vv-second"],
                },
                '{"detail": "a pivot vol in (1e+238, 50.0, 52.0) lies so far from reference '
                'vol 50.0 that its squared gap overflows", "error": "OverflowError"}',
            ),
        ],
        ids=[
            "negative_discriminant", "no_vega_first", "no_vega_second", "subnormal_vega",
            "squared_gap_overflow",
        ],
    )
    def test_numerical_failure_payload(
        self, base, overrides, payload, tmp_path, scenario_dir, capsys
    ):
        path = write_variant(tmp_path, scenario_dir / base, overrides)
        assert cli.main(["vv-smile", str(path)]) == 3
        assert capsys.readouterr() == ("", payload + "\n")

    def test_flat_pivots_produce_flat_grid(self, tmp_path):
        scenario = tmp_path / "flat.json"
        scenario.write_text(
            json.dumps(
                {
                    "forward": 0.0,
                    "expiry": 1.0,
                    "discount": 1.0,
                    "pivots": [
                        {"strike": -50.0, "vol": 50.0},
                        {"strike": 0.0, "vol": 50.0},
                        {"strike": 50.0, "vol": 50.0},
                    ],
                    "grid": {"min": -100.0, "max": 100.0, "step": 10.0},
                }
            )
        )
        rows = parse_csv(run_cli("vv-smile", str(scenario)).stdout)
        assert len(rows) == 21
        for row in rows:
            assert float(row["vol"]) == pytest.approx(50.0, abs=1e-9)

    def test_approximation_methods_selectable(self, tmp_path, scenario_dir):
        scenario = json.loads((scenario_dir / "scenario1_smile.json").read_text())
        scenario["methods"] = ["vv-first", "vv-second"]
        scenario["reference_vols"] = [50.0]
        path = tmp_path / "approx.json"
        path.write_text(json.dumps(scenario))
        rows = parse_csv(run_cli("vv-smile", str(path)).stdout)
        assert {row["method"] for row in rows} == {"vv-first", "vv-second"}
        expected = {"-50": 51.0, "0": 50.0, "50": 52.0}
        for row in rows:
            if row["strike"] in expected:
                assert float(row["vol"]) == pytest.approx(expected[row["strike"]], abs=1e-9)

    def test_singular_keys_read_as_one_item_lists(self, tmp_path, scenario_dir):
        scenario = json.loads((scenario_dir / "scenario1_smile.json").read_text())
        del scenario["reference_vols"], scenario["methods"]
        outputs = []
        for i, keys in enumerate(
            ({"reference_vol": 55, "method": "vv-first"},
             {"reference_vols": [55], "methods": ["vv-first"]})
        ):
            path = tmp_path / f"keys{i}.json"
            path.write_text(json.dumps({**scenario, **keys}))
            result = run_cli("vv-smile", str(path))
            assert result.returncode == 0
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        rows = parse_csv(outputs[0])
        assert {(row["method"], row["reference_vol"]) for row in rows} == {("vv-first", "55")}

    def test_rows_reprice_consistently(self, scenario1):
        # any ok row can be pushed back through price and invert
        rows = parse_csv(run_cli("vv-smile", scenario1).stdout)
        sample = [rows[3], rows[61 * 2 + 30], rows[-5]]
        for row in sample:
            price = json.loads(
                run_cli(
                    "price", "--forward", 0, "--strike", row["strike"],
                    "--expiry", 1, "--df", 1, "--vol", row["vol"],
                ).stdout
            )["price"]
            vol = json.loads(
                run_cli(
                    "invert", "--price", price, "--forward", 0,
                    "--strike", row["strike"], "--expiry", 1, "--df", 1,
                ).stdout
            )["implied_vol"]
            assert vol == pytest.approx(float(row["vol"]), rel=1e-9)


class TestFitCommands:
    def test_vv_fit_recovers_reference(self, scenario1):
        result = run_cli("vv-fit", scenario1)
        assert result.returncode == 0
        record = json.loads(result.stdout)
        assert record["reference_vol"] == pytest.approx(55.0, abs=1e-6)
        assert abs(record["residual"]) <= 1e-8

    def test_vv_fit_without_fourth_quote(self, scenario2):
        result = run_cli("vv-fit", scenario2)
        assert result.returncode == 2
        assert "fourth_quote" in result.stderr

    def test_vv_fit_unreachable_quote(self, tmp_path, scenario_dir):
        scenario = json.loads((scenario_dir / "scenario1_smile.json").read_text())
        scenario["fourth_quote"] = {"strike": 100.0, "vol": 250.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        result = run_cli("vv-fit", str(path))
        assert result.returncode == 3
        payload = json.loads(result.stderr)
        assert payload["error"] == "NoRoot"

    def test_pivot_without_vega_is_numerical_failure(self, tmp_path):
        # The expanded bracket scan reaches reference vol 2, where the
        # pivot at -100 has no vega; that scan point is skipped.
        scenario = {
            "forward": 0.0,
            "expiry": 1.0,
            "pivots": [
                {"strike": -100.0, "vol": 51.0},
                {"strike": 0.0, "vol": 50.0},
                {"strike": 100.0, "vol": 52.0},
            ],
            "fourth_quote": {"strike": 150.0, "vol": 500.0},
            "grid": {"min": -100.0, "max": 100.0, "step": 10.0},
        }
        path = tmp_path / "novega.json"
        path.write_text(json.dumps(scenario))
        result = run_cli("vv-fit", str(path))
        assert result.returncode == 3
        assert json.loads(result.stderr)["error"] == "NoRoot"

    @pytest.mark.parametrize("command", ["sabr-fit", "sabr-smile"])
    def test_sabr_fit_overflowing_vols_is_numerical_failure(
        self, command, tmp_path, scenario_dir, capsys
    ):
        pivots = [{"strike": k, "vol": 1e300} for k in (-50.0, 0.0, 50.0)]
        path = write_variant(tmp_path, scenario_dir / "scenario1_smile.json", {"pivots": pivots})
        assert cli.main([command, str(path)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err) == {
            "error": "CalibrationFailure",
            "detail": "pivot vols (1e+300, 1e+300, 1e+300) are too large: "
            "the flat-smile objective overflows",
        }

    def test_sabr_fit_frown_reports_residuals(self, scenario2):
        result = run_cli("sabr-fit", scenario2)
        assert result.returncode == 0
        record = json.loads(result.stdout)
        assert record["max_abs_residual"] >= 0.1
        assert len(record["residuals"]) == 3

    def test_sabr_fit_convex_is_exact(self, scenario1):
        record = json.loads(run_cli("sabr-fit", scenario1).stdout)
        assert record["max_abs_residual"] < 1e-8

    @pytest.mark.parametrize(
        "name, identified",
        [
            ("scenario1_smile.json", True),
            ("scenario2_frown.json", True),
            ("scenario3_density.json", True),
            ("scenario4_density_bimodal.json", False),
        ],
    )
    def test_sabr_fit_rho_identified(self, scenario_dir, name, identified):
        record = json.loads(run_cli("sabr-fit", scenario_dir / name).stdout)
        assert record["rho_identified"] is identified

    def test_sabr_fit_flat_pivots_leave_rho_unidentified(self, scenario_dir, tmp_path):
        scenario = json.loads((scenario_dir / "scenario1_smile.json").read_text())
        scenario["pivots"] = [{"strike": k, "vol": 50.0} for k in (-50.0, 0.0, 50.0)]
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(scenario))
        record = json.loads(run_cli("sabr-fit", path).stdout)
        assert record["rho_identified"] is False


class TestDensityCommand:
    def test_scenario4_bimodal(self, scenario4):
        result = run_cli("density", scenario4)
        assert result.returncode == 0
        rows = parse_csv(result.stdout)
        methods = {row["method"] for row in rows}
        assert methods == {"vv-exact", "sabr"}
        vv_rows = [row for row in rows if row["method"] == "vv-exact"]
        assert len(vv_rows) == 401
        assert all(float(row["density"]) >= 0.0 for row in vv_rows)
        diagnostics = json.loads(result.stderr)
        assert diagnostics["vv-exact"]["modes"] == 2
        assert diagnostics["vv-exact"]["integral"] == pytest.approx(1.0, abs=1e-3)
        assert diagnostics["sabr"]["modes"] == 1

    def test_prices_at_the_first_reference_vol_only(self, scenario_dir, tmp_path):
        scenario = json.loads((scenario_dir / "scenario3_density.json").read_text())
        results = []
        for i, refs in enumerate(([40.0], [40.0, 55.0], [55.0])):
            path = tmp_path / f"refs{i}.json"
            path.write_text(json.dumps({**scenario, "reference_vols": refs}))
            result = run_cli("density", str(path))
            assert result.returncode == 0
            results.append((result.stdout, result.stderr))
        assert results[0] == results[1]
        assert results[0][0] != results[2][0]

    def test_diagnostics_sidecar(self, scenario4, tmp_path):
        sidecar = tmp_path / "diag.json"
        result = run_cli("density", scenario4, "--diagnostics-out", str(sidecar))
        assert result.returncode == 0
        assert result.stderr == ""
        diagnostics = json.loads(sidecar.read_text())
        assert diagnostics["vv-exact"]["modes"] == 2

    def test_unwritable_sidecar_is_invalid_input(self, scenario4, tmp_path):
        sidecar = tmp_path / "missing" / "diag.json"
        result = run_cli("density", scenario4, "--diagnostics-out", str(sidecar))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("invalid input: cannot write diagnostics file")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr

    def test_zero_integral_prints_null_mean(self, tmp_path, scenario_dir, capsys):
        # Every vanna-volga price on this far grid is 0, so the mean is 0 / 0.
        grid = {"min": 1e6, "max": 1e6 + 100.0, "step": 5.0}
        path = write_variant(tmp_path, scenario_dir / "scenario1_smile.json", {"grid": grid})
        assert cli.main(["density", str(path)]) == 0
        diagnostics = strict_json(capsys.readouterr().err)["vv-exact"]
        assert diagnostics["integral"] == 0.0 and diagnostics["mean"] is None

    def test_delta_whose_square_underflows_is_invalid_input(self, scenario_dir, tmp_path):
        scenario = json.loads((scenario_dir / "scenario3_density.json").read_text())
        scenario["density_delta"] = 1e-170
        path = tmp_path / "tiny_delta.json"
        path.write_text(json.dumps(scenario))
        result = run_cli("density", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("invalid input: delta 1e-170 is too small")
        assert "Traceback" not in result.stderr

    def test_delta_lost_against_the_grid_is_invalid_input(self, scenario_dir, tmp_path):
        # x +/- 1e-160 rounds to x at every grid point but 0
        scenario = json.loads((scenario_dir / "scenario3_density.json").read_text())
        scenario["density_delta"] = 1e-160
        path = tmp_path / "lost_delta.json"
        path.write_text(json.dumps(scenario))
        result = run_cli("density", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("invalid input: delta 1e-160 is too small")
        assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


class TestScenarioValidation:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = run_cli("vv-smile", str(path))
        assert result.returncode == 2
        assert "scenario" in result.stderr

    def test_missing_file(self):
        result = run_cli("vv-smile", "/nonexistent/scenario.json")
        assert result.returncode == 2

    def test_bad_grid(self, tmp_path, scenario_dir):
        scenario = json.loads((scenario_dir / "scenario1_smile.json").read_text())
        scenario["grid"] = {"min": 100.0, "max": -100.0, "step": 5.0}
        path = tmp_path / "badgrid.json"
        path.write_text(json.dumps(scenario))
        result = run_cli("vv-smile", str(path))
        assert result.returncode == 2

    def test_zero_discount_scenario(self, tmp_path, scenario_dir):
        scenario = json.loads((scenario_dir / "scenario1_smile.json").read_text())
        scenario["discount"] = 0.0
        path = tmp_path / "zerodf.json"
        path.write_text(json.dumps(scenario))
        result = run_cli("vv-smile", str(path))
        assert result.returncode == 2
        assert "typo" in result.stderr or "zero out" in result.stderr

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("vv-smile", "forward", math.nan),
            ("sabr-fit", "forward", math.nan),
            ("vv-smile", "forward", 10**400),
            ("vv-smile", "expiry", math.inf),
            ("vv-smile", "grid", {"min": -100.0, "max": 100.0, "step": math.nan}),
            ("density", "density_delta", math.inf),
            ("vv-fit", "fourth_quote", {"strike": 100.0, "vol": math.nan}),
            ("vv-smile", "reference_vols", [50.0, -math.inf]),
        ],
    )
    def test_nonfinite_numbers_are_scenario_errors(
        self, tmp_path, scenario_dir, command, key, value
    ):
        scenario = json.loads((scenario_dir / "scenario1_smile.json").read_text())
        scenario[key] = value
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(scenario))  # Python's json writes NaN and Infinity
        result = run_cli(command, str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("scenario error:") and "must be finite" in result.stderr

    @pytest.mark.parametrize("command", ["vv-smile", "density"])
    @pytest.mark.parametrize(
        "strikes, denominators",
        [((0.0, 1e-300, 2e-300), "(0.0, -0.0, 0.0)"), ((-1e200, 0.0, 1e200), "(inf, -inf, inf)")],
        ids=["underflow", "overflow"],
    )
    def test_degenerate_pivot_strikes_are_scenario_errors(
        self, command, strikes, denominators, tmp_path, scenario_dir, capsys
    ):
        pivots = [{"strike": k, "vol": v} for k, v in zip(strikes, (51.0, 50.0, 52.0))]
        path = write_variant(tmp_path, scenario_dir / "scenario3_density.json", {"pivots": pivots})
        assert cli.main([command, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"scenario error: pivot strikes {strikes} are too close together or too far "
            f"apart: the interpolation denominators {denominators} must be normal floats\n"
        )

    def test_unknown_method(self, tmp_path, scenario_dir):
        scenario = json.loads((scenario_dir / "scenario1_smile.json").read_text())
        scenario["methods"] = ["heston"]
        path = tmp_path / "badmethod.json"
        path.write_text(json.dumps(scenario))
        result = run_cli("vv-smile", str(path))
        assert result.returncode == 2


@pytest.mark.parametrize(
    "command", ["vv-smile", "sabr-smile", "compare", "vv-fit", "sabr-fit", "density"]
)
def test_pivot_vol_times_root_expiry_underflow_is_scenario_error(
    command, tmp_path, scenario_dir, capsys
):
    pivots = [{"strike": k, "vol": 1e-271} for k in (-50.0, 0.0, 50.0)]
    overrides = {"expiry": 1e-305, "pivots": pivots}
    path = write_variant(tmp_path, scenario_dir / "scenario1_smile.json", overrides)
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr() == (
        "",
        "scenario error: a pivot vol in (1e-271, 1e-271, 1e-271) "
        "times sqrt(expiry 1e-305) underflows to 0\n",
    )


@pytest.mark.parametrize(
    "command, payload",
    [
        (
            command,
            {
                "error": "ZeroVega",
                "detail": "no pivot has vega at reference vol 1e-271: "
                "it times sqrt(expiry 1e-305) underflows to 0",
            },
        )
        for command in ("vv-smile", "compare", "density")
    ]
    + [
        # The expanded scan starts at 4e-172, whose product with sqrt(1e-305)
        # underflows to 0: skipped as a failed smile, like any other point.
        (
            "vv-fit",
            {
                "error": "NoRoot",
                "detail": "no reference vol in [4e-172, 2.5e-169] reprices the fourth quote "
                "(K=100.0, vol=57.192981401127206); endpoint residuals smile-failed "
                "and smile-failed",
            },
        ),
    ],
)
def test_reference_vol_times_root_expiry_underflow_is_numerical_failure(
    command, payload, tmp_path, scenario_dir, capsys
):
    # The pivot vols times sqrt(1e-305) are subnormal but not 0.
    pivots = [{"strike": k, "vol": 1e-170} for k in (-50.0, 0.0, 50.0)]
    overrides = {"expiry": 1e-305, "pivots": pivots, "reference_vols": [1e-271]}
    path = write_variant(tmp_path, scenario_dir / "scenario1_smile.json", overrides)
    assert cli.main([command, str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and strict_json(err) == payload


def test_emit_json_is_strict(capsys):
    cli._emit_json({"a": math.inf, "b": [math.nan, -math.inf, (-0.0, 1.0 / 3.0)], "c": 7})
    assert capsys.readouterr().out == (
        '{"a": null, "b": [null, null, [0.0, 0.333333333333]], "c": 7}\n'
    )


def test_bundled_scenarios_cover_reference_setups(scenario_dir):
    names = sorted(p.name for p in scenario_dir.glob("*.json"))
    assert names == [
        "scenario1_smile.json",
        "scenario2_frown.json",
        "scenario3_density.json",
        "scenario4_density_bimodal.json",
    ]
    for name, vols, refs in (
        ("scenario1_smile.json", [51.0, 50.0, 52.0], [40.0, 45.0, 50.0, 55.0, 60.0]),
        ("scenario2_frown.json", [48.0, 50.0, 49.0], [40.0, 50.0, 60.0]),
        ("scenario3_density.json", [48.0, 50.0, 49.0], [40.0]),
        ("scenario4_density_bimodal.json", [45.0, 50.0, 45.0], [30.0]),
    ):
        raw = json.loads((scenario_dir / name).read_text())
        assert [p["vol"] for p in raw["pivots"]] == vols
        assert raw["reference_vols"] == refs
        assert raw["discount"] == 1.0
        assert raw["forward"] == 0.0
        assert raw["expiry"] == 1.0


BLOCKED_RUN = """
import contextlib, io, json, math, sys
blocked = json.loads(sys.argv[1])
for name in blocked:
    sys.modules[name] = None  # any import of it now fails
import normal_vv
from normal_vv import bachelier, cli, density, implied_vol, sabr, vanna_volga
if json.loads(sys.argv[3]):
    for module in (normal_vv, bachelier, cli, density, implied_vol, sabr, vanna_volga):
        module.sum = math.fsum
report = {"codes": [], "outputs": []}
for argv in json.loads(sys.argv[2]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        report["codes"].append(cli.main(argv))
    report["outputs"].append([out.getvalue(), err.getvalue()])
for name in blocked:
    report[name] = sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == name and mod)
print(json.dumps(report))
"""


def run_blocked(modules, argvs, fsum=False):
    """Run each argv through `cli.main` in one interpreter where none of
    `modules` can be imported, and with `fsum` where every `normal_vv`
    module's global `sum` is `math.fsum`. The report holds the exit codes,
    each command's [stdout, stderr], and under each blocked name the
    modules of that package loaded at the end."""
    result = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN, *map(json.dumps, (modules, argvs, fsum))],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_import_leaves_scipy_optimize_unloaded(scenario_dir, tmp_path):
    # The package runs on numpy alone. In one interpreter where scipy
    # cannot be imported, every subcommand on every scenario, and the
    # golden price and invert runs, exit as they do in the golden runs,
    # and no scipy module is loaded.
    commands = [f"{c} {s}" for s in SCENARIO_NAMES for c in SCENARIO_COMMANDS]
    commands += list(OPTION_COMMANDS)
    argvs = [golden_argv(c, scenario_dir, tmp_path) for c in commands]
    report = run_blocked(["scipy"], argvs)
    # only scenario 1 has the fourth quote that vv-fit needs
    expected = [
        2 if c.startswith("vv-fit") and "scenario1" not in c else 0 for c in commands
    ]
    assert dict(zip(commands, report["codes"])) == dict(zip(commands, expected))
    assert report["scipy"] == []


SCENARIO_COMMANDS = ("vv-smile", "sabr-smile", "compare", "vv-fit", "sabr-fit", "density")
SCENARIO_NAMES = (
    "scenario1_smile.json",
    "scenario2_frown.json",
    "scenario3_density.json",
    "scenario4_density_bimodal.json",
)
OPTION_COMMANDS = (
    "price --forward 0 --strike 10 --expiry 1 --vol 50",
    "price --forward 1.5 --strike -20 --expiry 2 --df 0.9 --vol 33 --put",
    "invert --forward 0 --strike 10 --expiry 1 --price 15",
    "invert --forward 0 --strike 0 --expiry 1 --price 19.947",
)
# Scenario variants for the error exits: the shipped file they start from
# and the keys they override. Written to a temporary directory per test.
SCENARIO_VARIANTS = {
    "no_root.json": ("scenario1_smile.json", {"fourth_quote": {"strike": 100.0, "vol": 250.0}}),
    "no_vega.json": ("scenario1_smile.json", {"reference_vols": [0.5]}),
}
ERROR_COMMANDS = (
    "vv-fit no_root.json",
    "vv-smile no_vega.json",
    "price --forward 0 --strike 0 --expiry 1 --df 0 --vol 50",
    "invert --forward 0 --strike -50 --expiry 1 --price 49",
    # The hash of this one also covers the sidecar's bytes.
    "density scenario4_density_bimodal.json --diagnostics-out SIDECAR",
)

# First 16 hex digits of sha256(stdout NUL stderr NUL exit code) per command,
# followed by NUL and the sidecar's bytes when the command writes one.
# A change that moves digits on purpose updates the affected entries and
# says which and why in CHANGES.md.
GOLDEN_HASHES = {
    "vv-smile scenario1_smile.json": "9ba2879b1a82cd59",
    "sabr-smile scenario1_smile.json": "65bc81a8c2c81cfe",
    "compare scenario1_smile.json": "b5ec42591a3eed99",
    "vv-fit scenario1_smile.json": "d71858847a4f3db3",
    "sabr-fit scenario1_smile.json": "e9f090040c743dac",
    "density scenario1_smile.json": "71c5d0fca7bad112",
    "vv-smile scenario2_frown.json": "25aa0a04df035e32",
    "sabr-smile scenario2_frown.json": "1369723c38b635df",
    "compare scenario2_frown.json": "54ebd4178a4af2e1",
    "vv-fit scenario2_frown.json": "5f3a006d2e38643e",
    "sabr-fit scenario2_frown.json": "ee00c4c4d4773c92",
    "density scenario2_frown.json": "89309fb084509e2b",
    "vv-smile scenario3_density.json": "40f1ae2b5b30728e",
    "sabr-smile scenario3_density.json": "7146b06a8bee8f72",
    "compare scenario3_density.json": "a85c8e529b4b9115",
    "vv-fit scenario3_density.json": "5f3a006d2e38643e",
    "sabr-fit scenario3_density.json": "ee00c4c4d4773c92",
    "density scenario3_density.json": "ccd95b1a886de976",
    "vv-smile scenario4_density_bimodal.json": "4d46b37de1593161",
    "sabr-smile scenario4_density_bimodal.json": "f6aaf15a877ef8d5",
    "compare scenario4_density_bimodal.json": "0ad90ce5292834bd",
    "vv-fit scenario4_density_bimodal.json": "5f3a006d2e38643e",
    "sabr-fit scenario4_density_bimodal.json": "b8cb4cdf6aeda7a8",
    "density scenario4_density_bimodal.json": "d6d1941f9f6e0170",
    "price --forward 0 --strike 10 --expiry 1 --vol 50": "c8728357279a601c",
    "price --forward 1.5 --strike -20 --expiry 2 --df 0.9 --vol 33 --put": "f541f7beaec2546e",
    "invert --forward 0 --strike 10 --expiry 1 --price 15": "e3611cd373d958ea",
    "invert --forward 0 --strike 0 --expiry 1 --price 19.947": "8cbe89ddfdf2255f",
    "vv-fit no_root.json": "f3a353943af1cf99",
    "vv-smile no_vega.json": "7f08ce2ce290569a",
    "price --forward 0 --strike 0 --expiry 1 --df 0 --vol 50": "5f31e2117b321bbe",
    "invert --forward 0 --strike -50 --expiry 1 --price 49": "476d0f6c516d26f1",
    "density scenario4_density_bimodal.json --diagnostics-out SIDECAR": "35927e4439b7c9af",
}


def output_hash(result, sidecar: bytes | None = None) -> str:
    blob = result.stdout + b"\0" + result.stderr + b"\0" + str(result.returncode).encode()
    if sidecar is not None:
        blob += b"\0" + sidecar
    return hashlib.sha256(blob).hexdigest()[:16]


def golden_argv(command, scenario_dir, tmp_path):
    words = command.split()
    if words[0] in SCENARIO_COMMANDS:
        if words[1] in SCENARIO_VARIANTS:
            base, overrides = SCENARIO_VARIANTS[words[1]]
            words[1] = str(write_variant(tmp_path, scenario_dir / base, overrides, words[1]))
        else:
            words[1] = str(scenario_dir / words[1])
    return [str(tmp_path / w) if w == "SIDECAR" else w for w in words]


@pytest.mark.parametrize(
    "command",
    [f"{c} {s}" for s in SCENARIO_NAMES for c in SCENARIO_COMMANDS]
    + list(OPTION_COMMANDS)
    + list(ERROR_COMMANDS),
)
def test_golden_output(command, scenario_dir, tmp_path):
    argv = golden_argv(command, scenario_dir, tmp_path)
    result = subprocess.run(CLI + argv, capture_output=True)
    sidecar = tmp_path / "SIDECAR"
    sidecar_bytes = sidecar.read_bytes() if sidecar.exists() else None
    assert output_hash(result, sidecar_bytes) == GOLDEN_HASHES[command]


# Every command but density: they run, and print their golden bytes,
# without numpy.
SCALAR_COMMANDS = (
    list(OPTION_COMMANDS)
    + [f"{c} {s}" for c in ("vv-smile", "sabr-smile", "compare", "sabr-fit") for s in SCENARIO_NAMES]
    + ["vv-fit scenario1_smile.json"]
)


def report_hashes(commands, report):
    return {
        command: output_hash(
            SimpleNamespace(stdout=out.encode(), stderr=err.encode(), returncode=code)
        )
        for command, code, (out, err) in zip(commands, report["codes"], report["outputs"])
    }


def test_scalar_commands_run_without_numpy(scenario_dir, tmp_path):
    argvs = [golden_argv(c, scenario_dir, tmp_path) for c in SCALAR_COMMANDS]
    report = run_blocked(["numpy"], argvs)
    hashes = report_hashes(SCALAR_COMMANDS, report)
    assert hashes == {command: GOLDEN_HASHES[command] for command in SCALAR_COMMANDS}
    assert report["codes"] == [0] * len(SCALAR_COMMANDS)
    assert report["numpy"] == []


def test_scalar_commands_do_not_depend_on_float_sum(scenario_dir, tmp_path):
    # Since CPython 3.12 `sum` of floats is compensated, so it rounds
    # differently from 3.10 and 3.11. The library adds floats left to
    # right by hand instead; with `sum` swapped for `math.fsum`, which
    # rounds differently from both, the golden bytes still come out.
    argvs = [golden_argv(c, scenario_dir, tmp_path) for c in SCALAR_COMMANDS]
    report = run_blocked([], argvs, fsum=True)
    hashes = report_hashes(SCALAR_COMMANDS, report)
    assert hashes == {command: GOLDEN_HASHES[command] for command in SCALAR_COMMANDS}


def test_import_does_not_load_numpy():
    result = subprocess.run(
        [sys.executable, "-c", "import sys, normal_vv.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert (result.returncode, result.stdout) == (0, "False\n"), result.stderr


@pytest.mark.parametrize(
    "command",
    [
        "vv-smile scenario3_density.json",
        "density scenario3_density.json",
        "price --forward 0 --strike 10 --expiry 1 --vol 50",
    ],
)
def test_closed_stdout_exits_1_quietly(command, scenario_dir, tmp_path):
    # The read end is closed before the child writes, as when `| head` has
    # exited: the first write, or the final flush of a short output, fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            CLI + golden_argv(command, scenario_dir, tmp_path),
            stdout=write_end,
            stderr=subprocess.PIPE,
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (1, b"")


PUBLIC_NAMES = {
    "__version__",
    # bachelier
    "GreekSet", "OptionSpec", "bachelier_greeks", "bachelier_price", "norm_cdf", "norm_pdf",
    # density
    "DensityDiagnostics", "DensityGrid", "density_diagnostics", "density_from_prices",
    # implied_vol
    "COEFFICIENTS", "ArbitrageViolation", "InversionCoefficients", "implied_normal_vol",
    # sabr
    "CalibrationFailure", "SABRFit", "SABRParams", "sabr_fit", "sabr_normal_vol",
    # vanna_volga
    "FAILED_BELOW_INTRINSIC", "NegativeDiscriminant", "NoRoot", "PivotSet", "SmileGrid",
    "SmilePoint", "VVWeights", "ZeroVega", "calibrate_reference_vol", "vv_price",
    "vv_smile_exact", "vv_smile_first_order", "vv_smile_grid", "vv_smile_second_order",
    "vv_weights",
}


def test_readme_names_every_status_and_method(scenario_dir):
    # The README's smile-CSV paragraph names each status constant, and its
    # scenario schema each method, so neither drifts from the code's tables.
    readme = (scenario_dir.parent / "README.md").read_text(encoding="utf-8")
    paragraph = next(p for p in readme.split("\n\n") if p.startswith("Smile CSVs carry"))
    statuses = {
        value for name, value in vars(vanna_volga).items()
        if name == "STATUS_OK" or name.startswith("FAILED_")
    }
    assert {"ok", "failed_below_intrinsic", "failed_negative_vol"} <= statuses
    assert set(re.findall(r"`status=(\w+)`", paragraph)) == statuses
    schema = next(line for line in readme.splitlines() if line.lstrip().startswith('"methods":'))
    methods = [m.strip() for m in schema.split("//")[1].split("|")]
    assert methods == [*vanna_volga.VV_SMILES, "sabr"]


def test_public_surface():
    assert sorted(normal_vv.__all__) == sorted(PUBLIC_NAMES)  # no name twice
    namespace = {}
    exec("from normal_vv import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    # Beyond them the package holds only its submodules: no math or sys.
    extra = {n for n in vars(normal_vv) if not n.startswith("_")} - PUBLIC_NAMES
    assert all(vars(normal_vv)[n].__name__ == f"normal_vv.{n}" for n in extra), extra
    for module in (bachelier, density, implied_vol, sabr, vanna_volga):
        for name in module.__all__:
            value = vars(module)[name]
            assert not inspect.ismodule(value), (module.__name__, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, (module.__name__, name)

import csv
import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "normal_vv.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, **kwargs
    )


def parse_csv(text):
    return list(csv.DictReader(text.splitlines()))


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

    def test_zero_discount_warns_about_typo(self):
        result = run_cli(
            "price", "--forward", 0, "--strike", 0, "--expiry", 1, "--df", 0, "--vol", 50
        )
        assert result.returncode == 2
        assert "0 < df <= 1" in result.stderr


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

    def test_compare_concatenates_methods(self, scenario1):
        rows = parse_csv(run_cli("compare", scenario1).stdout)
        methods = {row["method"] for row in rows}
        assert methods == {"vv-exact", "sabr"}
        assert len(rows) == 5 * 61 + 61

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

    def test_vv_fit_unreachable_quote(self, tmp_path, scenario1):
        scenario = json.loads(open(scenario1).read())
        scenario["fourth_quote"] = {"strike": 100.0, "vol": 250.0}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        result = run_cli("vv-fit", str(path))
        assert result.returncode == 3
        payload = json.loads(result.stderr)
        assert payload["error"] == "NoRoot"

    def test_sabr_fit_frown_reports_residuals(self, scenario2):
        result = run_cli("sabr-fit", scenario2)
        assert result.returncode == 0
        record = json.loads(result.stdout)
        assert record["max_abs_residual"] >= 0.1
        assert len(record["residuals"]) == 3

    def test_sabr_fit_convex_is_exact(self, scenario1):
        record = json.loads(run_cli("sabr-fit", scenario1).stdout)
        assert record["max_abs_residual"] < 1e-8


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

    def test_diagnostics_sidecar(self, scenario4, tmp_path):
        sidecar = tmp_path / "diag.json"
        result = run_cli("density", scenario4, "--diagnostics-out", str(sidecar))
        assert result.returncode == 0
        assert result.stderr == ""
        diagnostics = json.loads(sidecar.read_text())
        assert diagnostics["vv-exact"]["modes"] == 2


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

    def test_unknown_method(self, tmp_path, scenario_dir):
        scenario = json.loads((scenario_dir / "scenario1_smile.json").read_text())
        scenario["methods"] = ["heston"]
        path = tmp_path / "badmethod.json"
        path.write_text(json.dumps(scenario))
        result = run_cli("vv-smile", str(path))
        assert result.returncode == 2


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


def test_import_leaves_scipy_optimize_unloaded():
    # Only the fits need the optimizers; price, invert and vv-smile
    # should not pay for importing them.
    code = "import sys, normal_vv; print('scipy.optimize' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"

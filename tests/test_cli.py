import csv
import hashlib
import json
import math
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
    "vv-fit scenario1_smile.json": "c200636e092fef2a",
    "sabr-fit scenario1_smile.json": "4d15e9b57ef372a6",
    "density scenario1_smile.json": "3025ac92ba50bbdc",
    "vv-smile scenario2_frown.json": "ddf29ea46aedc376",
    "sabr-smile scenario2_frown.json": "84fc5abd7e829666",
    "compare scenario2_frown.json": "5f9dcbea0146b34e",
    "vv-fit scenario2_frown.json": "5f3a006d2e38643e",
    "sabr-fit scenario2_frown.json": "38e62923e7d30303",
    "density scenario2_frown.json": "81bf6f7c55f5238d",
    "vv-smile scenario3_density.json": "c5c8a707f91bc808",
    "sabr-smile scenario3_density.json": "a364773e05dfd69e",
    "compare scenario3_density.json": "fd327bdcc9244140",
    "vv-fit scenario3_density.json": "5f3a006d2e38643e",
    "sabr-fit scenario3_density.json": "38e62923e7d30303",
    "density scenario3_density.json": "c5554a83227ac290",
    "vv-smile scenario4_density_bimodal.json": "cc4386b1eeef0686",
    "sabr-smile scenario4_density_bimodal.json": "f0d1208307282b27",
    "compare scenario4_density_bimodal.json": "c19f8e3a757d320d",
    "vv-fit scenario4_density_bimodal.json": "5f3a006d2e38643e",
    "sabr-fit scenario4_density_bimodal.json": "f4a2e8d46912f6b2",
    "density scenario4_density_bimodal.json": "c9c1ecdb2125e586",
    "price --forward 0 --strike 10 --expiry 1 --vol 50": "c8728357279a601c",
    "price --forward 1.5 --strike -20 --expiry 2 --df 0.9 --vol 33 --put": "f541f7beaec2546e",
    "invert --forward 0 --strike 10 --expiry 1 --price 15": "e3611cd373d958ea",
    "invert --forward 0 --strike 0 --expiry 1 --price 19.947": "8cbe89ddfdf2255f",
    "vv-fit no_root.json": "f3a353943af1cf99",
    "vv-smile no_vega.json": "7f08ce2ce290569a",
    "price --forward 0 --strike 0 --expiry 1 --df 0 --vol 50": "5f31e2117b321bbe",
    "invert --forward 0 --strike -50 --expiry 1 --price 49": "476d0f6c516d26f1",
    "density scenario4_density_bimodal.json --diagnostics-out SIDECAR": "4a8a8e3170bb5f64",
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
            scenario = json.loads((scenario_dir / base).read_text())
            scenario.update(overrides)
            path = tmp_path / words[1]
            path.write_text(json.dumps(scenario))
            words[1] = str(path)
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

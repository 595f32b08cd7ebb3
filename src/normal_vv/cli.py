"""Command-line front end: pricing, inversion, smile and density grids.

Scenario files are single JSON documents (see README for the schema).
Grids are emitted as CSV on stdout with 12 significant digits so that
identical scenarios produce byte-identical output; diagnostics go to
stderr. Exit codes: 0 success (possibly with partial grids), 2 for
usage or scenario-file problems, 3 for numerical or calibration
failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from .bachelier import OptionSpec, bachelier_greeks, bachelier_price
from .density import density_from_prices
from .implied_vol import ArbitrageViolation, implied_normal_vol
from .sabr import CalibrationFailure, sabr_fit, sabr_normal_vol
from .vanna_volga import (
    NegativeDiscriminant,
    NoRoot,
    PivotSet,
    SmileGrid,
    ZeroVega,
    calibrate_reference_vol,
    vv_price,
    vv_smile_exact,
    vv_smile_grid,
)

VV_METHODS = ("vv-exact", "vv-first", "vv-second")
ALL_METHODS = VV_METHODS + ("sabr",)

SMILE_HEADER = "strike,vol,method,reference_vol,status"
DENSITY_HEADER = "x,density,method"


class ScenarioError(ValueError):
    """The scenario file does not parse into a usable configuration."""


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario file: market context, pivots, grid and methods."""

    pivots: PivotSet
    reference_vols: tuple[float, ...]
    fourth_quote: tuple[float, float] | None
    grid_min: float
    grid_max: float
    grid_step: float
    methods: tuple[str, ...]
    density_delta: float

    def strikes(self) -> list[float]:
        out = []
        k = self.grid_min
        i = 0
        while k <= self.grid_max + 1e-9 * max(1.0, abs(self.grid_max)):
            out.append(k)
            i += 1
            k = self.grid_min + i * self.grid_step
        return out


def _zero_discount_message(label: str) -> str:
    return (
        "discount factor 0 would zero out every price; quote sheets "
        f"printing 0 almost always mean 1 (it must satisfy 0 < {label} <= 1)"
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario file must contain a JSON object")

    def need(key):
        if key not in raw:
            raise ScenarioError(f"scenario is missing required key {key!r}")
        return raw[key]

    def number(value, label):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ScenarioError(f"{label} must be a number, got {value!r}")
        return float(value)

    forward = number(need("forward"), "forward")
    expiry = number(need("expiry"), "expiry")
    discount = number(raw.get("discount", 1.0), "discount")
    if discount == 0.0:
        raise ScenarioError(_zero_discount_message("discount"))

    pivots_raw = need("pivots")
    if not isinstance(pivots_raw, list) or len(pivots_raw) != 3:
        raise ScenarioError("pivots must be a list of exactly three {strike, vol} objects")
    strikes = []
    vols = []
    for i, entry in enumerate(pivots_raw):
        if not isinstance(entry, dict):
            raise ScenarioError(f"pivot {i} must be an object with strike and vol")
        strikes.append(number(entry.get("strike"), f"pivot {i} strike"))
        vols.append(number(entry.get("vol"), f"pivot {i} vol"))

    refs_raw = raw.get("reference_vols")
    if refs_raw is None and "reference_vol" in raw:
        refs_raw = [raw["reference_vol"]]
    if refs_raw is None:
        refs = (vols[1],)
    else:
        if not isinstance(refs_raw, list) or not refs_raw:
            raise ScenarioError("reference_vols must be a non-empty list of numbers")
        refs = tuple(number(v, "reference vol") for v in refs_raw)

    fourth = None
    if "fourth_quote" in raw:
        q = raw["fourth_quote"]
        if not isinstance(q, dict):
            raise ScenarioError("fourth_quote must be an object with strike and vol")
        fourth = (number(q.get("strike"), "fourth strike"), number(q.get("vol"), "fourth vol"))

    grid = need("grid")
    if not isinstance(grid, dict):
        raise ScenarioError("grid must be an object with min, max and step")
    grid_min = number(grid.get("min"), "grid min")
    grid_max = number(grid.get("max"), "grid max")
    grid_step = number(grid.get("step"), "grid step")
    if not grid_min < grid_max:
        raise ScenarioError(f"grid min must be below max, got [{grid_min}, {grid_max}]")
    if not grid_step > 0.0:
        raise ScenarioError(f"grid step must be positive, got {grid_step}")

    methods_raw = raw.get("methods")
    if methods_raw is None and "method" in raw:
        methods_raw = [raw["method"]]
    if methods_raw is None:
        methods = ("vv-exact",)
    else:
        if not isinstance(methods_raw, list) or not methods_raw:
            raise ScenarioError("methods must be a non-empty list")
        for m in methods_raw:
            if m not in ALL_METHODS:
                raise ScenarioError(f"unknown method {m!r}; choose from {ALL_METHODS}")
        methods = tuple(methods_raw)

    # Step for the density second difference, decoupled from grid spacing.
    density_delta = number(raw.get("density_delta", grid_step / 10.0), "density_delta")
    if not density_delta > 0.0:
        raise ScenarioError(f"density_delta must be positive, got {density_delta}")

    try:
        pivots = PivotSet(
            forward=forward,
            expiry=expiry,
            strikes=tuple(strikes),
            vols=tuple(vols),
            discount=discount,
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None

    return Scenario(
        pivots=pivots,
        reference_vols=refs,
        fourth_quote=fourth,
        grid_min=grid_min,
        grid_max=grid_max,
        grid_step=grid_step,
        methods=methods,
        density_delta=density_delta,
    )


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    if value == 0.0:
        value = 0.0  # fold -0.0
    return f"{value:.12g}"


def _round12(value: float) -> float:
    return float(f"{value:.12g}") + 0.0


def _emit_json(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _smile_rows(grid: SmileGrid, reference_label: float | None) -> list[str]:
    rows = []
    for point in grid.points:
        rows.append(
            ",".join(
                (
                    _fmt(point.strike),
                    _fmt(point.vol),
                    grid.method,
                    _fmt(reference_label),
                    point.status,
                )
            )
        )
    return rows


def _spec_from_args(args) -> OptionSpec:
    if args.df == 0.0:
        raise ValueError(_zero_discount_message("df"))
    return OptionSpec(
        forward=args.forward,
        strike=args.strike,
        expiry=args.expiry,
        discount=args.df,
        kind="put" if args.put else "call",
    )


def cmd_price(args) -> int:
    spec = _spec_from_args(args)
    greeks = bachelier_greeks(spec, args.vol)
    _emit_json(
        {
            "price": _round12(greeks.price),
            "delta_forward": _round12(greeks.delta_forward),
            "vega": _round12(greeks.vega),
            "gamma_forward": _round12(greeks.gamma_forward),
            "vanna_forward": _round12(greeks.vanna_forward),
            "volga": _round12(greeks.volga),
            "moneyness": _round12(greeks.moneyness),
        }
    )
    return 0


def cmd_invert(args) -> int:
    spec = _spec_from_args(args)
    vol = implied_normal_vol(args.price, spec)
    _emit_json({"implied_vol": _round12(vol)})
    return 0


def _scenario_smile_rows(scenario: Scenario, methods) -> list[str]:
    rows = [SMILE_HEADER]
    strikes = scenario.strikes()
    for method in methods:
        if method == "sabr":
            fit = sabr_fit(scenario.pivots)
            for k in strikes:
                vol = sabr_normal_vol(
                    fit.params, scenario.pivots.forward, scenario.pivots.expiry, k
                )
                rows.append(",".join((_fmt(k), _fmt(vol), "sabr", "", "ok")))
        else:
            for ref in scenario.reference_vols:
                grid = vv_smile_grid(scenario.pivots.with_reference(ref), strikes, method)
                rows.extend(_smile_rows(grid, ref))
    return rows


def cmd_vv_smile(args) -> int:
    scenario = load_scenario(args.scenario)
    methods = [m for m in scenario.methods if m in VV_METHODS] or ["vv-exact"]
    print("\n".join(_scenario_smile_rows(scenario, methods)))
    return 0


def cmd_sabr_smile(args) -> int:
    scenario = load_scenario(args.scenario)
    print("\n".join(_scenario_smile_rows(scenario, ["sabr"])))
    return 0


def cmd_compare(args) -> int:
    scenario = load_scenario(args.scenario)
    methods = [m for m in scenario.methods if m in VV_METHODS] or ["vv-exact"]
    print("\n".join(_scenario_smile_rows(scenario, methods + ["sabr"])))
    return 0


def cmd_vv_fit(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.fourth_quote is None:
        raise ScenarioError("vv-fit needs a fourth_quote entry in the scenario")
    reference = calibrate_reference_vol(scenario.pivots, scenario.fourth_quote)
    k4, sigma4 = scenario.fourth_quote
    achieved = vv_smile_exact(scenario.pivots.with_reference(reference), k4)
    _emit_json(
        {
            "reference_vol": _round12(reference),
            "fourth_strike": _round12(k4),
            "fourth_vol": _round12(sigma4),
            "residual": _round12((achieved - sigma4) if achieved is not None else math.nan),
        }
    )
    return 0


def cmd_sabr_fit(args) -> int:
    scenario = load_scenario(args.scenario)
    fit = sabr_fit(scenario.pivots)
    _emit_json(
        {
            "alpha": _round12(fit.params.alpha),
            "nu": _round12(fit.params.nu),
            "rho": _round12(fit.params.rho),
            "residuals": [_round12(r) for r in fit.residuals],
            "max_abs_residual": _round12(fit.max_abs_residual),
        }
    )
    return 0


def cmd_density(args) -> int:
    scenario = load_scenario(args.scenario)
    strikes = scenario.strikes()
    pivots = scenario.pivots
    rows = [DENSITY_HEADER]
    diagnostics: dict[str, dict] = {}
    for method in scenario.methods:
        if method == "sabr":
            fit = sabr_fit(pivots)

            def price_fn(k: float, _fit=fit):
                vol = sabr_normal_vol(_fit.params, pivots.forward, pivots.expiry, k)
                if not vol > 0.0:
                    return None
                return bachelier_price(pivots.call_spec(k), vol)

            source = "sabr"
        else:
            # Density always comes from the replication price, so every
            # vv-* method selector shares one price function.
            anchored = pivots.with_reference(scenario.reference_vols[0])

            def price_fn(k: float, _pivots=anchored):
                return vv_price(_pivots, k)

            source = "vv"
        grid = density_from_prices(
            price_fn, pivots.discount, strikes, scenario.density_delta, source
        )
        for x, f in zip(grid.x, grid.values):
            rows.append(",".join((_fmt(float(x)), _fmt(float(f)), method)))
        diagnostics[method] = {
            "integral": _round12(grid.diagnostics.integral),
            "mean": _round12(grid.diagnostics.mean),
            "min_value": _round12(grid.diagnostics.min_value),
            "modes": grid.diagnostics.mode_count,
            "gaps": grid.diagnostics.gap_count,
        }
    print("\n".join(rows))
    payload = json.dumps(diagnostics, sort_keys=True)
    if args.diagnostics_out:
        with open(args.diagnostics_out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
    else:
        print(payload, file=sys.stderr)
    return 0


def _add_option_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--forward", type=float, required=True, help="forward level")
    parser.add_argument("--strike", type=float, required=True, help="strike level")
    parser.add_argument("--expiry", type=float, required=True, help="expiry in years")
    parser.add_argument("--df", type=float, default=1.0, help="discount factor (default 1)")
    parser.add_argument("--put", action="store_true", help="treat the option as a put")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normal-vv",
        description="Normal (Bachelier) smile toolkit: pricing, implied vols, "
        "vanna-volga and SABR smiles, risk-neutral densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("price", help="price one option and report its Greeks")
    _add_option_args(p)
    p.add_argument("--vol", type=float, required=True, help="normal volatility")
    p.set_defaults(handler=cmd_price)

    p = sub.add_parser("invert", help="implied normal vol from a price")
    _add_option_args(p)
    p.add_argument("--price", type=float, required=True, help="option price")
    p.set_defaults(handler=cmd_invert)

    for name, handler, blurb in (
        ("vv-smile", cmd_vv_smile, "vanna-volga smile grid as CSV"),
        ("sabr-smile", cmd_sabr_smile, "calibrated SABR smile grid as CSV"),
        ("compare", cmd_compare, "vanna-volga and SABR grids in one CSV"),
        ("vv-fit", cmd_vv_fit, "calibrate the reference vol to a fourth quote"),
        ("sabr-fit", cmd_sabr_fit, "calibrate SABR to the three pivots"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.set_defaults(handler=handler)

    p = sub.add_parser("density", help="risk-neutral density grid as CSV")
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument(
        "--diagnostics-out",
        default=None,
        help="write the diagnostics JSON line to this file instead of stderr",
    )
    p.set_defaults(handler=cmd_density)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (
        ArbitrageViolation, NoRoot, CalibrationFailure, NegativeDiscriminant, ZeroVega
    ) as exc:
        payload = {"error": type(exc).__name__, "detail": str(exc)}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

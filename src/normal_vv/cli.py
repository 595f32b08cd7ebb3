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
from dataclasses import asdict, dataclass
from functools import partial

from .bachelier import OptionSpec, bachelier_greeks, bachelier_price
from .density import density_from_prices
from .implied_vol import ArbitrageViolation, implied_normal_vol
from .sabr import CalibrationFailure, sabr_fit, sabr_normal_vol
from .vanna_volga import (
    STATUS_OK,
    VV_METHODS,
    NegativeDiscriminant,
    NoRoot,
    PivotSet,
    ZeroVega,
    calibrate_reference_vol,
    vv_price,
    vv_smile_exact,
    vv_smile_grid,
)

ALL_METHODS = VV_METHODS + ("sabr",)
# The methods each smile command prints, given the scenario's vanna-volga
# methods (vv-exact when it lists none).
SMILE_COMMANDS = {
    "vv-smile": lambda vv: vv,
    "sabr-smile": lambda vv: ["sabr"],
    "compare": lambda vv: vv + ["sabr"],
}

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
            raw = json.load(handle, parse_int=float)  # an int beyond float range is inf
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
        if not math.isfinite(value):
            raise ScenarioError(f"{label} must be finite, got {value!r}")
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
    if refs_raw is None:
        refs_raw = [raw["reference_vol"]] if "reference_vol" in raw else [vols[1]]
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
    if methods_raw is None:
        methods_raw = [raw["method"]] if "method" in raw else ["vv-exact"]
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


def _round12(value):
    """`value` with every float in it, through lists, tuples and dicts,
    rounded to 12 significant digits and -0.0 folded to 0.0."""
    if isinstance(value, float):
        return float(f"{value:.12g}") + 0.0
    if isinstance(value, dict):
        return {key: _round12(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(item) for item in value]
    return value


def _emit_json(record: dict, file=None) -> None:
    """Print `record` as one sorted-key JSON line, floats at 12 digits."""
    print(json.dumps(_round12(record), sort_keys=True), file=file)


def _spec_from_args(args) -> OptionSpec:
    if args.df == 0.0:
        raise ValueError(_zero_discount_message("df"))
    kind = "put" if args.put else "call"
    return OptionSpec(args.forward, args.strike, args.expiry, args.df, kind)


def cmd_price(args) -> int:
    _emit_json(asdict(bachelier_greeks(_spec_from_args(args), args.vol)))
    return 0


def cmd_invert(args) -> int:
    _emit_json({"implied_vol": implied_normal_vol(args.price, _spec_from_args(args))})
    return 0


def cmd_smile(args) -> int:
    scenario = load_scenario(args.scenario)
    pivots, strikes = scenario.pivots, scenario.strikes()
    vv_methods = [m for m in scenario.methods if m in VV_METHODS] or ["vv-exact"]
    rows = [SMILE_HEADER]
    for method in SMILE_COMMANDS[args.command](vv_methods):
        # One (strike, vol, reference vol, status) per row: vanna-volga
        # draws a curve per reference vol, SABR one curve without.
        if method == "sabr":
            params = sabr_fit(pivots).params
            points = [
                (k, sabr_normal_vol(params, pivots.forward, pivots.expiry, k), None, STATUS_OK)
                for k in strikes
            ]
        else:
            points = [
                (p.strike, p.vol, ref, p.status)
                for ref in scenario.reference_vols
                for p in vv_smile_grid(pivots.with_reference(ref), strikes, method).points
            ]
        rows.extend(
            ",".join((_fmt(k), _fmt(vol), method, _fmt(ref), status))
            for k, vol, ref, status in points
        )
    print("\n".join(rows))
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
            "reference_vol": reference,
            "fourth_strike": k4,
            "fourth_vol": sigma4,
            "residual": math.nan if achieved is None else achieved - sigma4,
        }
    )
    return 0


def cmd_sabr_fit(args) -> int:
    fit = sabr_fit(load_scenario(args.scenario).pivots)
    _emit_json(
        {
            **asdict(fit.params),
            "residuals": fit.residuals,
            "max_abs_residual": fit.max_abs_residual,
            "rho_identified": fit.rho_identified,
        }
    )
    return 0


def cmd_density(args) -> int:
    scenario = load_scenario(args.scenario)
    pivots, strikes = scenario.pivots, scenario.strikes()
    rows = [DENSITY_HEADER]
    diagnostics: dict[str, dict] = {}
    for method in scenario.methods:
        if method == "sabr":
            params = sabr_fit(pivots).params

            def price_fn(k: float):
                vol = sabr_normal_vol(params, pivots.forward, pivots.expiry, k)
                return bachelier_price(pivots.call_spec(k), vol) if vol > 0.0 else None
        else:
            # Density always comes from the replication price, so every
            # vv-* method selector shares one price function.
            price_fn = partial(vv_price, pivots.with_reference(scenario.reference_vols[0]))
        source = "sabr" if method == "sabr" else "vv"
        grid = density_from_prices(
            price_fn, pivots.discount, strikes, scenario.density_delta, source
        )
        for x, f in zip(grid.x, grid.values):
            rows.append(",".join((_fmt(float(x)), _fmt(float(f)), method)))
        summary = grid.diagnostics
        diagnostics[method] = {
            "integral": summary.integral,
            "mean": summary.mean,
            "min_value": summary.min_value,
            "modes": summary.mode_count,
            "gaps": summary.gap_count,
        }
    print("\n".join(rows))
    if args.diagnostics_out:
        with open(args.diagnostics_out, "w", encoding="utf-8") as handle:
            _emit_json(diagnostics, handle)
    else:
        _emit_json(diagnostics, sys.stderr)
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
        ("vv-smile", cmd_smile, "vanna-volga smile grid as CSV"),
        ("sabr-smile", cmd_smile, "calibrated SABR smile grid as CSV"),
        ("compare", cmd_smile, "vanna-volga and SABR grids in one CSV"),
        ("vv-fit", cmd_vv_fit, "calibrate the reference vol to a fourth quote"),
        ("sabr-fit", cmd_sabr_fit, "calibrate SABR to the three pivots"),
        ("density", cmd_density, "risk-neutral density grid as CSV"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.set_defaults(handler=handler)
        if name == "density":
            p.add_argument(
                "--diagnostics-out",
                default=None,
                help="write the diagnostics JSON line to this file instead of stderr",
            )

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
        _emit_json({"error": type(exc).__name__, "detail": str(exc)}, sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

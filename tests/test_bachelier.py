import dataclasses
import inspect
import math
import pickle
import re

import numpy as np
import pytest

from normal_vv import (
    OptionSpec,
    bachelier_greeks,
    bachelier_price,
    implied_normal_vol,
    norm_cdf,
    norm_pdf,
)
from normal_vv.bachelier import _call_price_pdf, _is_array, _per_element
from normal_vv.implied_vol import _rational_kernel

SQRT_2PI = math.sqrt(2.0 * math.pi)
INV_SQRT_2 = 1.0 / math.sqrt(2.0)

# Frozen oracle: quad integration of E[(F_T - K)^+] with F_T ~ N(0, 51^2)
# over z in [(K-F)/s, 12], epsabs=epsrel=1e-13 (error estimate 9e-13);
# a 50-digit evaluation of the closed form agrees to 16 digits.
INTEGRATION_ORACLE = 54.410132020290926


def spec(F=0.0, K=0.0, T=1.0, df=1.0, kind="call"):
    return OptionSpec(forward=F, strike=K, expiry=T, discount=df, kind=kind)


class TestPrice:
    def test_atm_closed_form(self):
        # d = 0 collapses the formula to sigma * sqrt(T) / sqrt(2*pi)
        price = bachelier_price(spec(), 50.0)
        assert price == pytest.approx(50.0 / SQRT_2PI, rel=1e-14)

    def test_matches_integration_oracle(self):
        price = bachelier_price(spec(K=-50.0), 51.0)
        assert price == pytest.approx(INTEGRATION_ORACLE, rel=5e-12)

    def test_negative_forward_and_strike_are_legal(self):
        price = bachelier_price(spec(F=-120.0, K=-100.0), 30.0)
        assert price > 0.0

    def test_intrinsic_lower_bound(self):
        # >= in general: at extreme moneyness the time value underflows
        # below one ulp of the intrinsic value; strictly above whenever
        # the time value is representable at all.
        rng = np.random.default_rng(11)
        for _ in range(300):
            F = rng.uniform(-200, 200)
            K = rng.uniform(-200, 200)
            sigma = 10 ** rng.uniform(-1, 2.7)
            T = 10 ** rng.uniform(math.log10(0.05), math.log10(30))
            df = rng.uniform(0.1, 1.0)
            d = abs(F - K) / (sigma * math.sqrt(T))
            for kind in ("call", "put"):
                s = spec(F, K, T, df, kind)
                price = bachelier_price(s, sigma)
                assert price >= s.intrinsic()
                # past |d| ~ 7 the time value drops below one ulp of a
                # large intrinsic value and equality becomes legitimate
                if d <= 6.0:
                    assert price > s.intrinsic()

    def test_large_vol_asymptote(self):
        # For huge vols the price is dominated by the time-value term.
        s = spec(F=10.0, K=-25.0, T=2.0, df=0.9)
        sigma = 1e6
        d = (10.0 + 25.0) / (sigma * math.sqrt(2.0))
        asymptote = 0.9 * sigma * math.sqrt(2.0) * math.exp(-0.5 * d * d) / SQRT_2PI
        price = bachelier_price(s, sigma)
        assert price >= s.intrinsic()
        assert price == pytest.approx(asymptote, rel=1e-4)

    def test_monotonic_in_strike_and_vol(self):
        strikes = np.linspace(-120.0, 120.0, 41)
        prices = [bachelier_price(spec(K=k), 40.0) for k in strikes]
        assert all(a > b for a, b in zip(prices, prices[1:]))
        vols = np.linspace(5.0, 300.0, 40)
        prices = [bachelier_price(spec(K=30.0), v) for v in vols]
        assert all(a < b for a, b in zip(prices, prices[1:]))

    def test_put_call_parity(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            F = rng.uniform(-150, 150)
            sigma = 10 ** rng.uniform(0, 2.7)
            T = 10 ** rng.uniform(math.log10(0.05), math.log10(30))
            df = rng.uniform(0.3, 1.0)
            K = F - rng.uniform(-3, 3) * sigma * math.sqrt(T)
            call = bachelier_price(spec(F, K, T, df, "call"), sigma)
            put = bachelier_price(spec(F, K, T, df, "put"), sigma)
            gap = abs(call - put - df * (F - K))
            assert gap <= 1e-13 * max(1.0, abs(call), abs(put))

    def test_textbook_formula_bit_for_bit(self):
        # Puts are priced as calls on K - F; that reflection must change
        # no bit of the textbook put formula, its delta or its vega, deep
        # in both wings too.
        def cdf(x):
            return 0.5 * math.erfc(-x * INV_SQRT_2)

        def pdf(x):
            return math.exp(-0.5 * x * x) / SQRT_2PI

        for F in (-250.0, -7.0, 0.0, 3.5, 120.0):
            for sigma, T, df in ((0.7, 0.05, 1.0), (50.0, 1.0, 0.93), (333.0, 12.0, 0.41)):
                stddev = sigma * math.sqrt(T)
                for K in (F - np.linspace(-9.0, 9.0, 73) * stddev).tolist():
                    d = (F - K) / stddev
                    call = df * ((F - K) * cdf(d) + stddev * pdf(d))
                    put = df * ((K - F) * cdf(-d) + stddev * pdf(d))
                    vega = df * math.sqrt(T) * pdf(d)
                    for kind, expected, delta in (
                        ("call", call, df * cdf(d)), ("put", put, -df * cdf(-d))
                    ):
                        s = spec(F, K, T, df, kind)
                        assert bachelier_price(s, sigma) == expected, (F, K, kind)
                        greeks = bachelier_greeks(s, sigma)
                        assert greeks.price == expected
                        assert greeks.delta_forward.hex() == delta.hex(), (F, K, kind)
                        assert greeks.vega.hex() == vega.hex(), (F, K, kind)

    def test_rejects_nonpositive_vol(self):
        with pytest.raises(ValueError):
            bachelier_price(spec(), 0.0)
        with pytest.raises(ValueError):
            bachelier_price(spec(), -3.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_nonfinite_vol(self, sigma):
        with pytest.raises(ValueError, match="finite"):
            bachelier_price(spec(), sigma)
        with pytest.raises(ValueError, match="finite"):
            bachelier_greeks(spec(), sigma)

    def test_rejects_vol_times_root_expiry_underflowing_to_zero(self):
        # Every formula divides by sigma * sqrt(T); the kernel itself does
        # not check it, so the entry points must.
        s = spec(K=1.0, T=1e-305)
        message = r"^volatility 1e-271 times sqrt\(expiry 1e-305\) underflows to 0$"
        for fn in (bachelier_price, bachelier_greeks):
            with pytest.raises(ValueError, match=message):
                fn(s, 1e-271)
        # The Greeks also divide by sigma * T, which can underflow alone.
        s = spec(K=1.0, T=1e-40)
        assert bachelier_price(s, 1e-300) == 0.0
        with pytest.raises(ValueError, match=r"^volatility 1e-300 times expiry 1e-40 underflows"):
            bachelier_greeks(s, 1e-300)


class TestGreeks:
    def test_atm_values(self):
        g = bachelier_greeks(spec(T=4.0, df=0.95), 25.0)
        assert g.vega == pytest.approx(0.95 * 2.0 / SQRT_2PI, rel=1e-14)
        assert g.vanna_forward == 0.0
        assert g.volga == 0.0
        assert g.moneyness == 0.0
        assert g.delta_forward == pytest.approx(0.95 * 0.5, rel=1e-14)

    def test_identity_chain(self):
        # volga/vega = d^2/sigma and vanna/vega = -d/(sqrt(T) sigma), exactly.
        rng = np.random.default_rng(13)
        for _ in range(100):
            F = rng.uniform(-100, 100)
            sigma = 10 ** rng.uniform(0, 2.5)
            T = 10 ** rng.uniform(-1, 1)
            K = F - rng.uniform(-3, 3) * sigma * math.sqrt(T)
            g = bachelier_greeks(spec(F, K, T), sigma)
            d = g.moneyness
            assert g.volga == pytest.approx(g.vega * d * d / sigma, rel=1e-13, abs=1e-300)
            assert g.vanna_forward == pytest.approx(
                -g.vega * d / (math.sqrt(T) * sigma), rel=1e-13, abs=1e-300
            )
            assert g.gamma_forward * sigma * T == pytest.approx(g.vega, rel=1e-13)

    def test_vega_and_gamma_nonnegative(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            F = rng.uniform(-100, 100)
            sigma = 10 ** rng.uniform(0, 2.5)
            K = F - rng.uniform(-4, 4) * sigma
            g = bachelier_greeks(spec(F, K), sigma)
            assert g.vega >= 0.0
            assert g.gamma_forward >= 0.0

    def test_finite_difference_example(self):
        # The module-level spot check at the pivot scenario the rest of
        # the suite leans on; the full randomized sweep lives in the
        # acceptance tests with the same step sizes.
        s = spec(K=-50.0)
        sigma = 51.0
        g = bachelier_greeks(s, sigma)
        stddev = sigma
        hf, hs = 1e-5 * stddev, 1e-5 * sigma
        hf2, hs2 = 8e-4 * stddev, 8e-4 * sigma

        def price(f=0.0, v=sigma):
            return bachelier_price(spec(F=f, K=-50.0), v)

        delta_fd = (price(f=hf) - price(f=-hf)) / (2 * hf)
        vega_fd = (price(v=sigma + hs) - price(v=sigma - hs)) / (2 * hs)
        gamma_fd = (price(f=hf2) - 2 * price() + price(f=-hf2)) / hf2**2
        volga_fd = (price(v=sigma + hs2) - 2 * price() + price(v=sigma - hs2)) / hs2**2
        vanna_fd = (
            price(hf2, sigma + hs2)
            - price(hf2, sigma - hs2)
            - price(-hf2, sigma + hs2)
            + price(-hf2, sigma - hs2)
        ) / (4 * hf2 * hs2)
        assert g.delta_forward == pytest.approx(delta_fd, rel=1e-6)
        assert g.vega == pytest.approx(vega_fd, rel=1e-6)
        assert g.gamma_forward == pytest.approx(gamma_fd, rel=1e-6)
        assert g.volga == pytest.approx(volga_fd, rel=1e-6)
        assert g.vanna_forward == pytest.approx(vanna_fd, rel=1e-6)

    def test_put_greeks(self):
        c = bachelier_greeks(spec(K=-50.0), 51.0)
        p = bachelier_greeks(spec(K=-50.0, kind="put"), 51.0)
        # vega, gamma, vanna, volga are kind-independent; delta differs by DF
        assert p.vega == c.vega
        assert p.gamma_forward == c.gamma_forward
        assert p.vanna_forward == c.vanna_forward
        assert p.volga == c.volga
        assert c.delta_forward - p.delta_forward == pytest.approx(1.0, rel=1e-13)


class TestOptionSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            OptionSpec(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            OptionSpec(0.0, 0.0, -1.0)
        with pytest.raises(ValueError):
            OptionSpec(0.0, 0.0, 1.0, discount=0.0)
        with pytest.raises(ValueError):
            OptionSpec(0.0, 0.0, 1.0, discount=1.5)
        with pytest.raises(ValueError):
            OptionSpec(0.0, 0.0, 1.0, kind="straddle")

    @pytest.mark.parametrize(
        "fields",
        [
            {"F": math.nan},
            {"F": -math.inf},
            {"K": math.nan},
            {"K": math.inf},
            {"T": math.inf},
            {"T": math.nan},
        ],
    )
    def test_rejects_nonfinite_fields(self, fields):
        with pytest.raises(ValueError, match="finite"):
            spec(**fields)

    def test_intrinsic(self):
        assert OptionSpec(10.0, -5.0, 1.0, 0.5).intrinsic() == 7.5
        assert OptionSpec(10.0, -5.0, 1.0, 0.5, "put").intrinsic() == 0.0
        assert OptionSpec(-20.0, -5.0, 1.0, 1.0, "put").intrinsic() == 15.0
        # F - K is +0.0 at the money, and the put's payoff K - F is -0.0.
        assert math.copysign(1.0, OptionSpec(0.0, 0.0, 1.0, 1.0, "put").intrinsic()) == 1.0
        assert math.copysign(1.0, OptionSpec(7.0, 7.0, 1.0, 0.5, "put").intrinsic()) == 1.0


class TestOptionSpecDataclass:
    """`OptionSpec` writes its own __init__; everything else a frozen
    dataclass promises must hold as before."""

    def test_public_behaviour(self):
        s = OptionSpec(1.0, 2.0, 3.0)
        assert (s.forward, s.strike, s.expiry, s.discount, s.kind) == (1.0, 2.0, 3.0, 1.0, "call")
        assert OptionSpec(forward=1.0, strike=2.0, expiry=3.0) == s
        assert OptionSpec(1.0, 2.0, 3.0, 1.0, "call") == s
        assert OptionSpec(1.0, 2.0, 3.0, 1.0, "put") != s
        assert hash(s) == hash(OptionSpec(1.0, 2.0, 3.0)) == hash((1.0, 2.0, 3.0, 1.0, "call"))
        assert repr(s) == (
            "OptionSpec(forward=1.0, strike=2.0, expiry=3.0, discount=1.0, kind='call')"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.strike = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del s.kind
        put = dataclasses.replace(s, kind="put", discount=0.5)
        assert put == OptionSpec(1.0, 2.0, 3.0, 0.5, "put") and s.kind == "call"
        with pytest.raises(ValueError, match="kind"):
            dataclasses.replace(s, kind="straddle")
        record = {"forward": 1.0, "strike": 2.0, "expiry": 3.0, "discount": 1.0, "kind": "call"}
        assert dataclasses.asdict(s) == record == vars(s)  # no state beyond the fields
        fields = dataclasses.fields(OptionSpec)
        assert [(f.name, f.default) for f in fields] == [
            ("forward", dataclasses.MISSING), ("strike", dataclasses.MISSING),
            ("expiry", dataclasses.MISSING), ("discount", 1.0), ("kind", "call"),
        ]
        # The hand-written __init__ takes the fields, in order, with their defaults.
        parameters = list(inspect.signature(OptionSpec).parameters.values())
        assert [(p.name, p.default) for p in parameters] == [
            (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
            for f in fields
        ]
        assert pickle.loads(pickle.dumps(put)) == put
        assert pickle.loads(pickle.dumps(put)).intrinsic() == put.intrinsic()

    def test_messages_in_check_order(self):
        # Each argument list fails every check from its own onwards, so only
        # the first check's message may show.
        cases = [
            ((math.nan, math.inf, -1.0, 2.0, "x"), "forward must be finite, got nan"),
            ((0.0, math.inf, -1.0, 2.0, "x"), "strike must be finite, got inf"),
            ((0.0, 0.0, -1.0, 2.0, "x"), "expiry must be positive and finite, got -1.0"),
            ((0.0, 0.0, 1.0, 2.0, "x"), "discount factor must be in (0, 1], got 2.0"),
            ((0.0, 0.0, 1.0, 1.0, "x"), "kind must be 'call' or 'put', got 'x'"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                OptionSpec(*args)


class TestKernel:
    """`_call_price_pdf` forms phi(d) and Phi(d) itself on a scalar; the
    results must be those of `norm_pdf` and `norm_cdf`, bit for bit."""

    @staticmethod
    def oracle(x, s, df):
        d = x / s
        return df * (x * norm_cdf(d) + s * norm_pdf(d)), norm_pdf(d)

    def test_scalar_matches_norm_functions_bit_for_bit(self):
        rng = np.random.default_rng(2101)
        n = 100_000
        s = 10.0 ** rng.uniform(-3.0, 3.0, n)
        x = rng.uniform(-40.0, 40.0, n) * s * rng.choice([1.0, 1e-3, 1e-9], n)
        df = rng.uniform(0.01, 1.0, n)
        for xi, si, dfi in zip(x.tolist(), s.tolist(), df.tolist()):
            price, pdf = _call_price_pdf(xi, si, dfi)
            expected_price, expected_pdf = self.oracle(xi, si, dfi)
            assert (price.hex(), pdf.hex()) == (expected_price.hex(), expected_pdf.hex())
        # The array path agrees element by element.
        price, pdf = _call_price_pdf(x, s, df)
        for i in rng.choice(n, 1_000, replace=False).tolist():
            expected_price, expected_pdf = self.oracle(x[i].item(), s[i].item(), df[i].item())
            assert float(price[i]).hex() == expected_price.hex()
            assert float(pdf[i]).hex() == expected_pdf.hex()

    def test_float32_and_int_scalars(self):
        x, s = np.float32(10.0), np.float32(50.0)
        price, pdf = _call_price_pdf(x, s, 1.0)
        expected_price, expected_pdf = self.oracle(x, s, 1.0)
        assert type(price) is type(expected_price) is np.float32 and price == expected_price
        assert type(pdf) is type(expected_pdf) is float and pdf == expected_pdf
        price, pdf = _call_price_pdf(10, 50, 1)
        assert (price, pdf) == self.oracle(10.0, 50.0, 1.0)
        assert type(price) is float and type(pdf) is float
        price, pdf = _call_price_pdf(np.int64(10), np.int64(50), 1)
        assert (float(price), pdf) == self.oracle(10.0, 50.0, 1.0)

    def test_0d_and_2d_arrays(self):
        # numpy reduces arithmetic on 0-d arrays to scalars: the scalar path.
        price, pdf = _call_price_pdf(np.array(10.0), np.array(50.0), 1.0)
        assert (float(price), pdf) == self.oracle(10.0, 50.0, 1.0)
        x = np.linspace(-300.0, 300.0, 12).reshape(3, 4)
        price, pdf = _call_price_pdf(x, 50.0, 0.9)
        assert price.shape == pdf.shape == (3, 4) and price.dtype == pdf.dtype == float
        for i, xi in enumerate(x.ravel().tolist()):
            assert (price.ravel()[i], pdf.ravel()[i]) == self.oracle(xi, 50.0, 0.9)


class TestPerElement:
    @pytest.mark.parametrize(
        "a",
        [
            np.array([0.5, math.nan, -3.0, 0.0, math.inf, 1e-300]),
            np.array(0.25),
            np.array(math.nan),
            np.float64(2.0),
            np.linspace(-5.0, 5.0, 12).reshape(4, 3),
            np.array([[math.nan, 1.0], [2.0, -math.inf]]),
            np.array([]),
        ],
    )
    @pytest.mark.parametrize("fn", [math.exp, math.erfc])
    def test_equals_frompyfunc(self, fn, a):
        result = _per_element(fn, a)
        expected = np.asarray(np.frompyfunc(fn, 1, 1)(a), dtype=float)
        assert isinstance(result, np.ndarray) and result.dtype == float
        assert result.shape == expected.shape
        assert np.array_equal(result, expected, equal_nan=True)


class TestIsArray:
    """`_is_array` sends every scalar down the scalar path, numpy scalars
    and ints included, and every ndarray, 0-d too, down the array path."""

    @pytest.mark.parametrize("x", [1.5, 3, np.float64(1.5), np.float32(1.5), np.int64(3)])
    def test_scalars_are_not_arrays(self, x):
        assert not _is_array(x)

    @pytest.mark.parametrize("x", [np.array(1.5), np.array([1.5, 2.0])])
    def test_arrays_are_arrays(self, x):
        assert _is_array(x)

    def test_float32_inputs_keep_their_type(self):
        s = OptionSpec(np.float32(0), np.float32(10), 1.0)
        price = bachelier_price(s, np.float32(50))
        assert type(price) is np.float32 and price == np.float32(15.34473)
        vol = implied_normal_vol(price, s)
        assert type(vol) is np.float32 and vol == np.float32(49.999996)

    def test_int_inputs_give_floats(self):
        s = OptionSpec(0, 10, 1)
        price = bachelier_price(s, 50)
        assert type(price) is float and price == 15.344731793163824
        vol = implied_normal_vol(price, s)
        assert type(vol) is float and vol == 50.0

    def test_zero_d_array_takes_the_array_branch(self):
        # math.sqrt raises on a negative float, np.sqrt gives NaN
        with pytest.raises(ValueError):
            _rational_kernel(-0.5)
        with np.errstate(invalid="ignore"):
            assert math.isnan(_rational_kernel(np.array(-0.5)))
        assert _rational_kernel(np.array(0.5)) == _rational_kernel(0.5)

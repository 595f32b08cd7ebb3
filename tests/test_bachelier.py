import math

import numpy as np
import pytest

from normal_vv import OptionSpec, bachelier_greeks, bachelier_price

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
        # no bit of the textbook put formula, deep in both wings too.
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
                    for kind, expected in (("call", call), ("put", put)):
                        s = spec(F, K, T, df, kind)
                        assert bachelier_price(s, sigma) == expected, (F, K, kind)
                        assert bachelier_greeks(s, sigma).price == expected

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

import math

import numpy as np
import pytest

from normal_vv import (
    COEFFICIENTS,
    ArbitrageViolation,
    OptionSpec,
    bachelier_price,
    implied_normal_vol,
)
from normal_vv.implied_vol import _implied_call_vols, _log

SQRT_2PI = math.sqrt(2.0 * math.pi)


def spec(F=0.0, K=0.0, T=1.0, df=1.0, kind="call"):
    return OptionSpec(forward=F, strike=K, expiry=T, discount=df, kind=kind)


def test_coefficients_digit_for_digit():
    # A silent transcription slip here corrupts every inversion, so the
    # constants are pinned literal by literal.
    assert COEFFICIENTS.numerator == (
        3.994961687345134e-1,
        2.100960795068497e+1,
        4.980340217855084e+1,
        5.988761102690991e+2,
        1.848489695437094e+3,
        6.106322407867059e+3,
        2.493415285349361e+4,
        1.266458051348246e+4,
    )
    assert COEFFICIENTS.denominator == (
        1.000000000000000e+0,
        4.990534153589422e+1,
        3.093573936743112e+1,
        1.495105008310999e+3,
        1.323614537899738e+3,
        1.598919697679745e+4,
        2.392008891720782e+4,
        3.608817108375034e+3,
        -2.067719486400926e+2,
        1.174240599306013e+1,
    )
    assert COEFFICIENTS.denominator[0] == 1.0
    assert len(COEFFICIENTS.numerator) == 8
    assert len(COEFFICIENTS.denominator) == 10


class TestInversion:
    def test_atm_example(self):
        vol = implied_normal_vol(50.0 / SQRT_2PI, spec())
        assert vol == pytest.approx(50.0, rel=1e-12)

    def test_pivot_round_trip(self):
        s = spec(K=-50.0)
        price = bachelier_price(s, 51.0)
        assert implied_normal_vol(price, s) == pytest.approx(51.0, rel=1e-10)

    def test_below_intrinsic_raises(self):
        with pytest.raises(ArbitrageViolation):
            implied_normal_vol(49.0, spec(K=-50.0))
        # exactly intrinsic is still unreachable by any positive vol
        with pytest.raises(ArbitrageViolation):
            implied_normal_vol(50.0, spec(K=-50.0))
        with pytest.raises(ArbitrageViolation):
            implied_normal_vol(-1.0, spec(K=50.0))
        with pytest.raises(ArbitrageViolation):
            implied_normal_vol(math.inf, spec())
        with pytest.raises(ArbitrageViolation):
            implied_normal_vol(math.nan, spec())

    def test_round_trip_otm_sweep(self):
        # Out-of-the-money quotes carry the vol information; the full
        # dense sweep lives in the acceptance suite.
        for sigma in (1.0, 50.0, 500.0):
            for t in (0.05, 1.0, 30.0):
                for d in np.linspace(-6.0, 6.0, 25):
                    k = -d * sigma * math.sqrt(t)
                    kind = "put" if d > 0 else "call"
                    s = spec(K=k, T=t, kind=kind)
                    price = bachelier_price(s, sigma)
                    vol = implied_normal_vol(price, s)
                    assert abs(vol - sigma) / sigma <= 1e-10

    def test_round_trip_with_discounting(self):
        s = spec(F=25.0, K=-10.0, T=2.5, df=0.87)
        price = bachelier_price(s, 33.0)
        assert implied_normal_vol(price, s) == pytest.approx(33.0, rel=1e-10)

    def test_put_round_trip(self):
        s = spec(F=-10.0, K=35.0, T=0.5, kind="put")
        price = bachelier_price(s, 42.0)
        assert implied_normal_vol(price, s) == pytest.approx(42.0, rel=1e-10)

    def test_monotonic_in_price(self):
        s = spec(K=20.0)
        prices = np.linspace(13.0, 200.0, 120)
        vols = [implied_normal_vol(p, s) for p in prices]
        assert all(a < b for a, b in zip(vols, vols[1:]))

    def test_symmetry_under_negation(self):
        # Normal-model symmetry: flipping the signs of forward and strike
        # and swapping call for put leaves the implied vol unchanged.
        rng = np.random.default_rng(21)
        for _ in range(50):
            F = rng.uniform(-80, 80)
            sigma = 10 ** rng.uniform(0, 2.3)
            T = 10 ** rng.uniform(-1, 1)
            K = F - rng.uniform(-4, 4) * sigma * math.sqrt(T)
            call = spec(F, K, T)
            mirrored = spec(-F, -K, T, kind="put")
            price = bachelier_price(call, sigma)
            assert bachelier_price(mirrored, sigma) == pytest.approx(price, rel=1e-13)
            v1 = implied_normal_vol(price, call)
            v2 = implied_normal_vol(price, mirrored)
            assert v2 == pytest.approx(v1, rel=1e-12)

    def test_atm_seam_continuity(self):
        sigma = 50.0
        strikes = [-1e-10, -1e-12, -1e-14, -1e-15, 0.0, 1e-15, 1e-14, 1e-12, 1e-10]
        vols = []
        for k in strikes:
            s = spec(K=k)
            vols.append(implied_normal_vol(bachelier_price(s, sigma), s))
        jumps = [abs(a - b) for a, b in zip(vols, vols[1:])]
        assert max(jumps) <= 1e-12 * sigma


@pytest.mark.parametrize(
    "F, T, df, sigma",
    [(0.0, 1.0, 1.0, 50.0), (-35.0, 10.0, 0.8, 120.0), (250.0, 0.05, 0.95, 3.0)],
)
def test_array_inverter_matches_scalar(F, T, df, sigma):
    # Call quotes on both sides of the forward out to |d| = 37, the ATM
    # seam, and quotes the scalar inverter rejects. Beyond d ~ 7.6 an
    # in-the-money call price rounds to intrinsic value; those quotes and
    # the 18 planted ones are the only rejections.
    stddev = sigma * math.sqrt(T)
    strikes = [F - d * stddev for d in np.linspace(-37.0, 37.0, 741)]
    scale = max(1.0, 2.0 * abs(F))
    for factor in (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 10.0, 1e3):
        strikes += [F - factor * 1e-14 * scale, F + factor * 1e-14 * scale]
    prices = [bachelier_price(spec(F, k, T, df), sigma) for k in strikes]
    at_intrinsic = sum(p <= spec(F, k, T, df).intrinsic() for k, p in zip(strikes, prices))
    for k in (F - stddev, F, F + stddev):
        intrinsic = spec(F, k, T, df).intrinsic()
        for price in (intrinsic, intrinsic - 1.0, 0.0, math.inf, -math.inf, math.nan):
            strikes.append(k)
            prices.append(price)
    vols = _implied_call_vols(np.array(prices), F, np.array(strikes), T, df)
    rejected = 0
    for k, price, vol in zip(strikes, prices, vols.tolist()):
        try:
            expected = implied_normal_vol(price, spec(F, k, T, df))
        except ArbitrageViolation:
            rejected += 1
            assert math.isnan(vol), (k, price)
        else:
            assert vol == expected, (k, price)
    assert rejected - at_intrinsic == 18


@pytest.mark.parametrize(
    "price, F, K, T, df",
    [
        (15.344731793163824, 0.0, 10.0, 1.0, 1.0),  # OTM call, seed from log1p
        (19.947114020071634, 0.0, 0.0, 1.0, 1.0),  # at the money
        (31.0, 0.0, -20.0, 2.0, 0.9),  # in the money, discounted
        (1e-200, -5.0, 400.0, 1.0, 1.0),  # far out of the money
    ],
)
def test_array_inverter_on_0d_arrays(price, F, K, T, df):
    # A ufunc from np.frompyfunc returns a Python float for a 0-d input;
    # the array branches must still give an array equal to the float result.
    vol = _implied_call_vols(np.array(price), F, np.array(K), T, df)
    assert isinstance(vol, np.ndarray) and vol.ndim == 0
    assert float(vol).hex() == implied_normal_vol(price, spec(F, K, T, df)).hex()


def test_array_inverter_on_a_0d_rejected_quote():
    vol = _implied_call_vols(np.array(5.0), 0.0, np.array(-10.0), 1.0, 1.0)
    assert vol.ndim == 0 and math.isnan(vol)


def test_log_on_0d_arrays():
    assert float(_log(np.array(2.0))).hex() == math.log(2.0).hex()
    assert math.isnan(_log(np.array(-1.0)))


def test_otm_round_trip_with_discounting_to_the_underflow_edge():
    # Out-of-the-money calls and puts with df < 1, from the money out to
    # where the price underflows (|d| ~ 37-38): every price >= 1e-300
    # inverts to 1e-12 in vol.
    rng = np.random.default_rng(37)
    reach = 0.0
    for _ in range(3000):
        sigma = 10 ** rng.uniform(-1.0, 3.0)
        T = 10 ** rng.uniform(-2.0, 1.5)
        F = rng.uniform(-100.0, 100.0)
        df = rng.uniform(0.2, 1.0)
        d = rng.uniform(0.0, 40.0)
        kind = "call" if rng.uniform() < 0.5 else "put"
        sign = 1.0 if kind == "call" else -1.0
        s = spec(F, F + sign * d * sigma * math.sqrt(T), T, df, kind)
        price = bachelier_price(s, sigma)
        if price < 1e-300:
            continue
        vol = implied_normal_vol(price, s)
        assert abs(vol - sigma) <= 1e-12 * sigma, (s, sigma, price)
        reach = max(reach, d)
    assert reach > 36.0


class TestFailuresInBand:
    # A quote no vol fits raises ArbitrageViolation (a NaN in arrays),
    # never ZeroDivisionError or a math domain error.
    def test_itm_time_value_rounds_to_zero(self):
        # Above discounted intrinsic value, but price / df - payoff == 0.
        s = spec(F=3.0, K=0.0, df=0.503)
        price = math.nextafter(s.intrinsic(), math.inf)
        assert price > s.intrinsic() and price / s.discount - 3.0 <= 0.0
        with pytest.raises(ArbitrageViolation):
            implied_normal_vol(price, s)
        vols = _implied_call_vols(np.array([price]), 3.0, np.array([0.0]), 1.0, 0.503)
        assert math.isnan(vols[0])

    def test_prices_at_the_underflow_edge(self):
        # Below about 2e-304 the Newton steps' vega underflows to zero.
        strikes = [1.0, 100.0, 1e5, 1e300]
        prices = [1e-310, 1e-320, 5e-324, 2e-304]
        for k, price in zip(strikes, prices):
            with pytest.raises(ArbitrageViolation):
                implied_normal_vol(price, spec(K=k))
        vols = _implied_call_vols(np.array(prices), 0.0, np.array(strikes), 1.0, 1.0)
        assert np.isnan(vols).all()


class TestAtmClosedForm:
    # At F == K the inverter starts from sigma = price * sqrt(2*pi/T) / df.
    def test_inverts_exactly(self):
        s = spec(T=4.0)
        price = 25.0 * 2.0 / SQRT_2PI
        assert implied_normal_vol(price, s) == pytest.approx(25.0, rel=1e-14)

    def test_round_trip_with_pricer(self):
        s = spec(F=-7.0, K=-7.0, T=0.25, df=0.9)
        price = bachelier_price(s, 80.0)
        assert implied_normal_vol(price, s) == pytest.approx(80.0, rel=1e-13)

    def test_rejects_zero_price(self):
        with pytest.raises(ArbitrageViolation):
            implied_normal_vol(0.0, spec())

"""How well the vanna-volga hedge weights cancel vega, vanna and volga:
the check behind acceptance criterion 3 and `test_vanna_volga.py`."""

import math
from dataclasses import dataclass

from normal_vv import PivotSet, norm_pdf, vv_weights


@dataclass(frozen=True)
class HedgeResiduals:
    """Residuals of the three hedge-cancellation constraints at one strike.

    Residuals keep the vega scale: `vanna` and `volga` drop the common
    1/(sigma*sqrt(T)) and 1/sigma prefactors shared by both sides, which
    cancel identically.
    """

    strike: float
    vega: float
    vanna: float
    volga: float
    vega_scale: float

    @property
    def max_relative(self) -> float:
        return max(self.vega, self.vanna, self.volga) / self.vega_scale


def verify_risk_elimination(pivots: PivotSet, k0: float) -> HedgeResiduals:
    """Residuals of the three hedge-cancellation constraints at `k0`.

    With exact arithmetic all three vanish; in floats they sit at the
    rounding floor. Raises `ZeroVega` as `vv_weights` does.
    """
    weights = vv_weights(pivots, k0)
    sqrt_t = math.sqrt(pivots.expiry)
    df = pivots.discount
    d0 = weights.target_moneyness
    vega0 = df * sqrt_t * norm_pdf(d0)
    vega = [df * sqrt_t * norm_pdf(d_i) for d_i in weights.pivot_moneyness]
    w = weights.hedge
    d = weights.pivot_moneyness
    r_vega = abs(vega0 - sum(w_i * v_i for w_i, v_i in zip(w, vega)))
    r_vanna = abs(vega0 * d0 - sum(w_i * v_i * d_i for w_i, v_i, d_i in zip(w, vega, d)))
    r_volga = abs(
        vega0 * d0 * d0 - sum(w_i * v_i * d_i * d_i for w_i, v_i, d_i in zip(w, vega, d))
    )
    return HedgeResiduals(
        strike=k0, vega=r_vega, vanna=r_vanna, volga=r_volga, vega_scale=vega0
    )

"""Normal (Bachelier) volatility smiles via vanna-volga, with a Normal
SABR comparator, machine-precision implied-vol inversion, and
risk-neutral density extraction."""

from .bachelier import (
    GreekSet,
    OptionSpec,
    bachelier_greeks,
    bachelier_price,
    norm_cdf,
    norm_pdf,
)
from .density import (
    DensityDiagnostics,
    DensityGrid,
    density_diagnostics,
    density_from_prices,
)
from .implied_vol import (
    COEFFICIENTS,
    ArbitrageViolation,
    InversionCoefficients,
    implied_normal_vol,
)
from .sabr import CalibrationFailure, SABRFit, SABRParams, sabr_fit, sabr_normal_vol
from .vanna_volga import (
    FAILED_BELOW_INTRINSIC,
    HedgeResiduals,
    NegativeDiscriminant,
    NoRoot,
    PivotSet,
    SmileGrid,
    SmilePoint,
    VVWeights,
    ZeroVega,
    calibrate_reference_vol,
    verify_risk_elimination,
    vv_price,
    vv_smile_exact,
    vv_smile_first_order,
    vv_smile_grid,
    vv_smile_second_order,
    vv_weights,
)

__version__ = "0.1.0"

__all__ = [
    "ArbitrageViolation",
    "CalibrationFailure",
    "COEFFICIENTS",
    "DensityDiagnostics",
    "DensityGrid",
    "FAILED_BELOW_INTRINSIC",
    "GreekSet",
    "HedgeResiduals",
    "InversionCoefficients",
    "NegativeDiscriminant",
    "NoRoot",
    "OptionSpec",
    "PivotSet",
    "SABRFit",
    "SABRParams",
    "SmileGrid",
    "SmilePoint",
    "VVWeights",
    "ZeroVega",
    "__version__",
    "bachelier_greeks",
    "bachelier_price",
    "calibrate_reference_vol",
    "density_diagnostics",
    "density_from_prices",
    "implied_normal_vol",
    "norm_cdf",
    "norm_pdf",
    "sabr_fit",
    "sabr_normal_vol",
    "verify_risk_elimination",
    "vv_price",
    "vv_smile_exact",
    "vv_smile_first_order",
    "vv_smile_grid",
    "vv_smile_second_order",
    "vv_weights",
]

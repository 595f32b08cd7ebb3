"""Normal (Bachelier) volatility smiles via vanna-volga, with a Normal
SABR comparator, machine-precision implied-vol inversion, and
risk-neutral density extraction."""

from . import bachelier, density, implied_vol, sabr, vanna_volga
from .bachelier import *
from .density import *
from .implied_vol import *
from .sabr import *
from .vanna_volga import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += bachelier.__all__
__all__ += density.__all__
__all__ += implied_vol.__all__
__all__ += sabr.__all__
__all__ += vanna_volga.__all__

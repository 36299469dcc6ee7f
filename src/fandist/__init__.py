"""fandist: exact fan distributions of colored point sets.

An exact-arithmetic library and CLI computing equidistributing, piercing,
rainbow, and two-fan distributions of finite colored point sets by r-fans,
through the correspondence between fan distributions and proper Tverberg
partitions under Gale duality.
"""

from fandist.exactnum import Cyclotomic, ExactMatrix
from fandist.galedual import GaleDualPair, PointConfig

__version__ = "0.1.0"

__all__ = [
    "Cyclotomic",
    "ExactMatrix",
    "GaleDualPair",
    "PointConfig",
    "__version__",
]

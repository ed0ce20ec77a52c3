"""Joint crosstalk-avoidance and error-correction coding for parallel buses.

Each layer's ``__all__`` is the one list of its public names; the package
re-exports all of them.
"""

__version__ = "0.1.0"

from .buscore import *
from .cac import *
from .ira import *
from .jointcode import *
from .bpdecode import *
from .densevo import *
from .simkit import *

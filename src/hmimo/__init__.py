"""Line-of-sight channel models for holographic MIMO surfaces.

Exact dyadic-Green reference channel, transmit-receive separable
approximations, eigenchannel capacity, agreement metrics and a benchmark
CLI for distance and element-count sweeps.  The package re-exports every
submodule's ``__all__``; ``hmimo.capacity`` is the capacity function.
"""

from . import capacity as _capacity, errors, geometry, green, metrics, separable, sweep
from .capacity import *  # noqa: F403 (rebinds hmimo.capacity to the function)
from .errors import *  # noqa: F403
from .geometry import *  # noqa: F403
from .green import *  # noqa: F403
from .metrics import *  # noqa: F403
from .separable import *  # noqa: F403
from .sweep import *  # noqa: F403

__all__ = [name for module in (_capacity, errors, geometry, green, metrics, separable, sweep)
           for name in module.__all__]

__version__ = "0.1.0"

"""Natural exponential families, stretch certificates, and optimistic bandits.

The package namespace is the union of the modules' ``__all__`` lists.
"""

from . import bandit, config, distributions, glm, rng, selfconcordance, tailbounds
from .bandit import *
from .config import *
from .distributions import *
from .glm import *
from .rng import *
from .selfconcordance import *
from .tailbounds import *

__all__ = [name for module in (bandit, config, distributions, glm, rng, selfconcordance,
                               tailbounds) for name in module.__all__]
__version__ = "0.1.0"

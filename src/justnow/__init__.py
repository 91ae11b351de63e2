"""Factorized probabilistic semantics of vague temporal adverbials.

Events carry a temporal precedence curve (a normal CDF in elapsed minutes);
adverbials carry a Gaussian kernel on the precedence axis; composing the
two predicts how acceptable "just"-style adverbials are at a given elapsed
time.  The package also ships a non-factorized per-pair Gaussian baseline,
least-squares fitting for both families, accuracy evaluation, a synthetic
survey generator, and a CLI (`justnow`).

Every public name of the four library modules is re-exported here.
"""

from . import data, evaluation, fitting, model
from .data import *  # noqa: F403
from .evaluation import *  # noqa: F403
from .fitting import *  # noqa: F403
from .model import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*model.__all__, *data.__all__, *fitting.__all__, *evaluation.__all__]

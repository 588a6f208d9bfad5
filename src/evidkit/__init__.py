"""Dirichlet evidential deep learning at desk scale.

Evidence activations and Dirichlet state, evidential losses, incorrect- and
correct-evidence regularizers with analytic logit gradients, a small dense
network trained by manual backprop, toy datasets, uncertainty metrics, a
deterministic trainer, and a CLI.
"""

# Each star import also binds its submodule, whose __all__ is joined below.
from .datasets import *
from .evidence import *
from .gradcheck import *
from .losses import *
from .metrics import *
from .network import *
from .regularizers import *
from .special import *
from .trainer import *

__version__ = "0.1.0"

__all__ = [
    *evidence.__all__,
    *losses.__all__,
    *regularizers.__all__,
    *gradcheck.__all__,
    *network.__all__,
    *datasets.__all__,
    *metrics.__all__,
    *trainer.__all__,
    *special.__all__,
    "__version__",
]

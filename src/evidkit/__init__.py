"""Dirichlet evidential deep learning at desk scale.

Evidence activations and Dirichlet state, evidential losses, incorrect- and
correct-evidence regularizers with analytic logit gradients, a small dense
network trained by manual backprop, toy datasets, uncertainty metrics, a
deterministic trainer, and a CLI.

`import evidkit` loads each module on its first use (PEP 562): a submodule
when its name is read, and an exported name from the first module, in
_MODULES order, whose __all__ holds it.
"""

import sys

__version__ = "0.1.0"

# The modules whose __all__ lists are joined, in order, into the package's.
_MODULES = (
    "evidence", "losses", "regularizers", "gradcheck", "network",
    "datasets", "metrics", "trainer", "special",
)


def _module(name: str):
    # __import__ takes the interpreter's own import path, which -X importtime
    # reports; importlib.import_module's does not show there.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _MODULES:
        return _module(name)
    if name == "__all__":
        value = [n for m in _MODULES for n in _module(m).__all__] + ["__version__"]
    else:
        # a dunder name is no export; pydoc probes __author__ and __date__
        mods = () if name.startswith("__") else map(_module, _MODULES)
        mod = next((mod for mod in mods if name in mod.__all__), None)
        if mod is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(mod, name)
    globals()[name] = value  # later reads are plain attribute reads
    return value


def __dir__() -> list:
    return sorted({*globals(), *sys.modules[__name__].__all__, *_MODULES})

"""scipy's compiled modules, loaded without their packages' ``__init__``.

The library calls two compiled scipy modules: the HiGHS bindings scipy
vendors (``scipy.optimize._highspy._core``) and the bipartite matching of
``scipy.sparse.csgraph._matching``. Importing either the usual way first
runs its parent packages' ``__init__``: ``scipy.optimize``'s loads
``linprog``, ``minimize`` and scipy.special/spatial/fft/linalg (171
modules), and ``scipy.sparse.csgraph``'s loads ``scipy.sparse.linalg``
and ``scipy.linalg``. Nothing in :mod:`repro` calls any of that, so
:func:`load_scipy_extension` loads the one extension from its file.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys
from types import ModuleType

import scipy

__all__ = ["load_scipy_extension"]


def load_scipy_extension(name: str, package: str) -> ModuleType:
    """The compiled scipy module ``name``, without ``package``'s ``__init__``.

    ``package`` is the parent package whose ``__init__`` the direct load
    avoids. The package import remains the path when ``package`` is
    already loaded, or when the direct load fails in any way; it raises
    if the module is missing.
    """
    if package not in sys.modules:
        try:
            return _load_from_file(name)
        except Exception:  # repro-lint: disable=RL005 -- any failure of the direct load falls back to the package import below, which raises if the module is missing
            pass
    return importlib.import_module(name)


def _load_from_file(name: str) -> ModuleType:
    """Load the extension ``name`` from its directory under scipy.

    ``PathFinder.find_spec`` with an explicit path searches that directory
    alone and imports no parent package. The module is registered in
    ``sys.modules`` under its canonical name, so every later import of
    it, direct or through its package, gets this one module.
    """
    loaded = sys.modules.get(name)
    if loaded is not None:
        return loaded
    directory = os.path.join(
        os.path.dirname(scipy.__file__), *name.split(".")[1:-1]
    )
    spec = importlib.machinery.PathFinder.find_spec(name, [directory])
    if spec is None or not isinstance(
        spec.loader, importlib.machinery.ExtensionFileLoader
    ):
        raise ImportError(f"no {name} extension in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module

import inspect

import sbmpot
from sbmpot import bernstein, densities, errors, harnack, kernels, ladder, montecarlo

# the modules whose public names the package re-exports
EXPORTING = (bernstein, densities, errors, harnack, kernels, ladder, montecarlo)
MODULES = ("bernstein", "densities", "errors", "harnack", "kernels", "ladder", "laplace",
           "montecarlo", "rng")


def test_public_api():
    # each module's __all__ is the one list of its public names: the package
    # exports exactly those, every public class and function is on it, and
    # every listed name resolves
    assert sbmpot.__all__ == ["__version__", *MODULES, *(n for m in EXPORTING for n in m.__all__)]
    assert len(set(sbmpot.__all__)) == len(sbmpot.__all__)
    for m in EXPORTING:
        defined = {name for name, obj in vars(m).items()
                   if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
                   and obj.__module__ == m.__name__}
        assert defined <= set(m.__all__), m.__name__
        for name in m.__all__:
            assert getattr(sbmpot, name) is getattr(m, name), name
    for name in MODULES:
        assert inspect.ismodule(getattr(sbmpot, name))

import types

import jointbus
from jointbus import bpdecode, buscore, cac, densevo, ira, jointcode, simkit

MODULES = (buscore, cac, ira, jointcode, bpdecode, densevo, simkit)


def test_package_reexports_exactly_module_all():
    # a name dropped from a module's __all__ must leave the package too,
    # and every public name of a module must be reachable from it
    exported = {name for name, value in vars(jointbus).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    declared = set().union(*(m.__all__ for m in MODULES))
    assert exported == declared
    for m in MODULES:
        for name in m.__all__:
            assert getattr(jointbus, name) is getattr(m, name)


def test_test_only_names_are_not_public():
    # names only tests reached: removed, or private to their module
    for name in ("UNSET", "k_info", "run_rank", "run_unrank", "p_poly", "rho_tilde",
                 "state_from_runs"):
        assert not hasattr(jointbus, name)
        assert all(name not in m.__all__ for m in MODULES)

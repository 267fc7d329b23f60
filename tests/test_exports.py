"""The package's export list matches what it binds."""
import types

import bcfusion


def test_every_exported_name_resolves_and_star_import_binds_exactly_them():
    names = bcfusion.__all__
    assert len(set(names)) == len(names)
    assert all(hasattr(bcfusion, name) for name in names)
    namespace = {}
    exec("from bcfusion import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
    # and every public name the package imports is exported
    public = {name for name, value in vars(bcfusion).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(names)

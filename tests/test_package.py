"""The package's public surface: the names `dualwave.__all__` exports."""

import dualwave


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from dualwave import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dualwave.__all__)
    for name in dualwave.__all__:
        assert namespace[name] is getattr(dualwave, name)

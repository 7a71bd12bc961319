"""The package's public names."""

import elegant


def test_every_export_resolves():
    assert len(set(elegant.__all__)) == len(elegant.__all__)
    for name in elegant.__all__:
        assert getattr(elegant, name).__module__.startswith("elegant."), name


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from elegant import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(elegant.__all__)

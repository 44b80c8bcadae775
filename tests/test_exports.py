import importlib
import pkgutil

import pytest

import hdcow

MODULES = ["hdcow"] + [info.name for info in pkgutil.walk_packages(hdcow.__path__, "hdcow.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []

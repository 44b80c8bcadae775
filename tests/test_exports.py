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


@pytest.mark.parametrize("module", ["hdcow", "hdcow.protocol"])
def test_per_click_decode_is_not_exported(module):
    # decode_frame decodes a frame's clicks at once; the per-click
    # reference lives in the tests
    assert not hasattr(importlib.import_module(module), "decode_click")

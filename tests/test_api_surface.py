"""API-surface meta-tests: public items are documented and importable."""

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.api",
    "repro.nn",
    "repro.core",
    "repro.datasets",
    "repro.metrics",
    "repro.train",
    "repro.deploy",
    "repro.hw",
    "repro.theory",
    "repro.nas",
    "repro.resilience",
    "repro.serve",
    "repro.dataplane",
    "repro.zoo",
    "repro.cli",
    "repro.utils",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, name


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr}"


@pytest.mark.parametrize("name", PACKAGES)
def test_public_callables_documented(name):
    """Every public class/function reachable from __all__ has a docstring."""
    module = importlib.import_module(name)
    undocumented = []
    for attr in getattr(module, "__all__", []):
        obj = getattr(module, attr, None)
        if obj is None or not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if not (obj.__doc__ or "").strip():
            undocumented.append(attr)
    assert not undocumented, f"{name}: undocumented public items {undocumented}"


def test_public_methods_of_key_classes_documented():
    from repro.core import SESR, CollapsibleLinearBlock, FSRCNN
    from repro.hw import NPUSpec
    from repro.nn import Module, Tensor

    for cls in (Tensor, Module, CollapsibleLinearBlock, SESR, FSRCNN, NPUSpec):
        for name, member in vars(cls).items():
            if name.startswith("_") or not callable(member):
                continue
            assert (member.__doc__ or "").strip(), f"{cls.__name__}.{name}"


def test_version_exposed():
    import repro

    assert repro.__version__


@pytest.mark.parametrize("module,name", [
    ("repro.serve", "SRServer"),
    ("repro.serve", "SRRequestHandler"),
    ("repro.serve", "upscale_array"),
    ("repro.serve.http", "SRServer"),
    ("repro.serve.http", "SRRequestHandler"),
    ("repro.serve.http", "upscale_array"),
    ("repro.dataplane", "make_async_server"),
    ("repro.api", "make_async_server"),
])
def test_sync_front_end_is_gone(module, name):
    """One HTTP front-end: the threaded server and its aliases are gone."""
    assert not hasattr(importlib.import_module(module), name)


@pytest.mark.parametrize("argv", [
    ["serve", "--frontend", "sync"],
    ["serve", "--verbose"],
])
def test_removed_serve_flags_are_an_argparse_error(argv, capsys):
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as err:
        build_parser().parse_args(argv)
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err
    # The one remaining value stays accepted for existing command lines.
    assert build_parser().parse_args(
        ["serve", "--frontend", "async"]).frontend == "async"

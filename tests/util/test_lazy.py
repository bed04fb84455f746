"""The lazy package façades behave like the eager imports they replaced."""

import importlib

import pytest

FACADES = ["repro", "repro.bench", "repro.obs"]


@pytest.mark.parametrize("name", FACADES)
def test_every_listed_name_resolves_and_is_listed_once(name):
    package = importlib.import_module(name)
    assert len(set(package.__all__)) == len(package.__all__)
    assert set(package.__all__) <= set(dir(package))
    for public in package.__all__:
        assert getattr(package, public) is not None
        assert public in vars(package)  # cached: the hook ran once


@pytest.mark.parametrize("name", FACADES)
def test_star_import_binds_exactly_all(name):
    scope: dict = {}
    exec(f"from {name} import *", scope)
    scope.pop("__builtins__")
    assert set(scope) == set(importlib.import_module(name).__all__)


def test_resolved_names_are_the_submodules_objects():
    import repro
    import repro.bench
    import repro.obs
    from repro.bench.flood import run_flood
    from repro.core.session import Session
    from repro.obs.ledger import Ledger

    assert repro.Session is Session
    assert repro.bench.run_flood is run_flood
    assert repro.obs.Ledger is Ledger


def test_submodules_still_import_through_the_package():
    from repro.bench import figures, sweep
    from repro.obs import compare

    assert figures.__name__ == "repro.bench.figures"
    assert sweep.__name__ == "repro.bench.sweep"
    assert compare.__name__ == "repro.obs.compare"


@pytest.mark.parametrize("name", FACADES)
def test_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})

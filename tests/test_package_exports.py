"""``repro`` and ``repro.machine`` load each public name on first use
(PEP 562), from the one table per package that lists it."""

import importlib

import pytest

import repro
import repro.machine

PACKAGES = [repro, repro.machine]


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_public_name_is_its_definition(package):
    listing = dir(package)
    for name in package.__all__:
        assert name in listing, name
        where = package._EXPORTS.get(name)
        if where is None:  # defined in the package itself
            assert name in vars(package), name
            continue
        module, _, attr = where.partition(":")
        defining = importlib.import_module(f"{package.__name__}.{module}")
        assert getattr(package, name) is getattr(defining, attr or name), name


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_an_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["simulate"] is importlib.import_module("repro.machine.system").simulate


def test_one_copy_of_the_program_order():
    from repro.workloads import registry

    assert registry.BENCHMARK_ORDER is repro.BENCHMARK_ORDER
    assert repro.workloads.BENCHMARK_ORDER is repro.BENCHMARK_ORDER

from __future__ import annotations

import pytest

import qslab

from oracles import a_series_cartan, closure_system


@pytest.fixture(scope="session")
def e6():
    return qslab.build_root_system("E6")


@pytest.fixture(scope="session")
def e7():
    return qslab.build_root_system("E7")


@pytest.fixture(scope="session")
def e8():
    return qslab.build_root_system("E8")


@pytest.fixture(scope="session")
def rs_map(e6, e7, e8):
    return {"E6": e6, "E7": e7, "E8": e8}


@pytest.fixture(scope="session")
def a1():
    return closure_system(a_series_cartan(1), "A1")

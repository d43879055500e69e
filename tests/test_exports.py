"""The package namespace: every exported name resolves."""

import ontomodels


def test_every_export_resolves():
    assert len(set(ontomodels.__all__)) == len(ontomodels.__all__)
    assert [n for n in ontomodels.__all__ if not hasattr(ontomodels, n)] == []


def test_star_import():
    ns = {}
    exec("from ontomodels import *", ns)
    assert set(ontomodels.__all__) <= set(ns)

"""Shared fixtures: the model roster and samplers used across the suite.

The roster covers total dimensions 4, 5, 7 with one polynomial-profile model
(diagonal A) and one homogeneous model (nilpotent A in an adapted basis) per
dimension. Polynomial profiles are strictly monotone cubics so the metric is
nowhere locally symmetric on the sampling window.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from ecs_lab.homogeneous import HomogeneousModel, sample_isometries
from ecs_lab.model_geometry import ModelManifold, PolynomialProfile
from ecs_lab.pseudo_linear import PseudoEuclideanSpace

ORACLE_DIR = Path(__file__).parent / "oracles"


@dataclass
class RosterEntry:
    name: str
    model: ModelManifold
    kind: str                      # "polynomial" or "homogeneous"
    hm: Optional[HomogeneousModel] = None


def _polynomial_entry(name, gram_diag, a_diag, coeffs):
    space = PseudoEuclideanSpace(np.diag(gram_diag).astype(float))
    model = ModelManifold.ecs(space, np.diag(a_diag).astype(float),
                              PolynomialProfile(coeffs))
    return RosterEntry(name, model, "polynomial")


def _homogeneous_entry(name, m, c):
    hm = HomogeneousModel.standard(m, c)
    return RosterEntry(name, hm.model, "homogeneous", hm)


def build_roster():
    return [
        _polynomial_entry("n4-poly", [1, 1], [1, -1], [0.0, 1.0, 0.0, 0.1]),
        _homogeneous_entry("n4-homog", 2, 0.3),
        _polynomial_entry("n5-poly", [1, 1, -1], [1, 2, -3],
                          [0.0, 2.0, 0.0, 1.0 / 6.0]),
        _homogeneous_entry("n5-homog", 3, 1.5),
        _polynomial_entry("n7-poly", [1, 1, 1, -1, -1],
                          [2, 1, 0.5, -1, -2.5],
                          [0.0, 1.0, 0.5, 0.1]),
        _homogeneous_entry("n7-homog", 5, 0.25),
    ]


@pytest.fixture(scope="session")
def roster():
    return build_roster()


@pytest.fixture(scope="session")
def curvature_oracle():
    with open(ORACLE_DIR / "curvature_m2.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def iso_sampler():
    """Valid group elements for a roster entry, from the library's sampler."""
    return lambda entry, rng, count: sample_isometries(entry.model, rng, count)

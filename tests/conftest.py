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

from ecs_lab.homogeneous import HomogeneousModel
from ecs_lab.isometry_group import IsoElement, SElement
from ecs_lab.model_geometry import ModelManifold, PolynomialProfile
from ecs_lab.pseudo_linear import PseudoEuclideanSpace
from ecs_lab.solution_space import random_solution

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


def sample_isometries(entry: RosterEntry, rng: np.random.Generator,
                      count: int) -> list[IsoElement]:
    """Valid group elements for the entry's model.

    Homogeneous models get the full dilational family (random q, both signs
    of delta); polynomial models get q = 1, p = 0 with a sign-diagonal C,
    which commutes with the diagonal A and preserves the diagonal Gram form.
    Every element carries random Heisenberg data (r, u).
    """
    model = entry.model
    out = []
    for _ in range(count):
        r = float(rng.standard_normal())
        u = random_solution(model, rng)
        if entry.kind == "homogeneous":
            q = float(np.exp(rng.uniform(-np.log(2.0), np.log(2.0))))
            delta = 1.0 if rng.uniform() < 0.5 else -1.0
            sigma = entry.hm.dilation(q, delta)
        else:
            signs = np.where(rng.uniform(size=model.m) < 0.5, 1.0, -1.0)
            sigma = SElement(q=1.0, p=0.0, C=np.diag(signs))
        out.append(IsoElement(sigma=sigma, r=r, u=u))
    return out


@pytest.fixture(scope="session")
def iso_sampler():
    return sample_isometries


def iso_distance(a: IsoElement, b: IsoElement) -> float:
    """Coordinate distance between two group elements, for equality-style
    assertions."""
    return max(
        abs(a.sigma.q - b.sigma.q),
        abs(a.sigma.p - b.sigma.p),
        float(np.max(np.abs(a.sigma.C - b.sigma.C))),
        abs(a.r - b.r),
        float(np.max(np.abs(a.u.data() - b.u.data()))),
    )

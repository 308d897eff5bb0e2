import math

import numpy as np
import pytest

from randic_energy.energy import graph_energy, vertex_energies
from randic_energy.families import (
    ClosedFormEnergy,
    FamilyKind,
    FamilySpec,
    VertexClass,
    closed_form_energy,
    friendship,
    friendship_spectrum,
    generate,
    vertex_classes,
)
from randic_energy.spectral import eigen_symmetric, randic_matrix
from helpers import friendship_hub_weights


def spec(kind, **kw):
    return FamilySpec(kind=FamilyKind(kind), **kw)


# ---------------------------------------------------------------- generators

def test_generate_complete():
    g = generate(spec("complete", n=5))
    assert g.n == 5 and g.m == 10
    assert all(d == 4 for d in g.degrees)


def test_generate_star_center_first():
    g = generate(spec("star", n=5))
    assert g.degrees == (4, 1, 1, 1, 1)


def test_generate_complete_bipartite():
    g = generate(spec("complete_bipartite", n1=2, n2=3))
    assert g.n == 5 and g.m == 6
    assert g.degrees == (3, 3, 2, 2, 2)


def test_generate_friendship():
    g = generate(spec("friendship", triangles=3))
    assert g.n == 7 and g.m == 9
    assert g.degrees[0] == 6
    assert all(d == 2 for d in g.degrees[1:])


def test_generate_cycle_and_path():
    assert generate(spec("cycle", n=6)).m == 6
    assert generate(spec("path", n=6)).m == 5


def test_parameter_validation():
    with pytest.raises(ValueError):
        spec("complete", n=1)
    with pytest.raises(ValueError):
        spec("cycle", n=2)
    with pytest.raises(ValueError):
        spec("complete_bipartite", n1=0, n2=3)
    with pytest.raises(ValueError):
        spec("friendship", triangles=0)


# ---------------------------------------------------------------- closed forms

def test_complete_energy_values():
    assert closed_form_energy(spec("complete", n=5), VertexClass.ANY).value == 0.4
    assert closed_form_energy(spec("complete", n=8), VertexClass.ANY).value == 0.25


def test_star_energy_values():
    s = spec("star", n=6)
    assert closed_form_energy(s, VertexClass.HUB).value == 1.0
    assert closed_form_energy(s, VertexClass.LEAF).value == pytest.approx(0.2)


def test_complete_bipartite_energy_values():
    s = spec("complete_bipartite", n1=2, n2=3)
    assert closed_form_energy(s, VertexClass.SIDE_A).value == 0.5
    assert closed_form_energy(s, VertexClass.SIDE_B).value == pytest.approx(1 / 3)


def test_friendship_energy_values():
    s = spec("friendship", triangles=3)
    assert closed_form_energy(s, VertexClass.HUB).value == pytest.approx(2 / 3)
    assert closed_form_energy(s, VertexClass.LEAF).value == pytest.approx(10 / 18)


def test_cycle_energy_values_by_residue():
    got = closed_form_energy(spec("cycle", n=8), VertexClass.ANY)
    assert got.closed_form
    assert got.value == pytest.approx(
        2 * math.cos(math.pi / 8) / (8 * math.sin(math.pi / 8))
    )
    got = closed_form_energy(spec("cycle", n=5), VertexClass.ANY)
    assert got.closed_form
    assert got.value == pytest.approx(1 / (5 * math.sin(math.pi / 10)))
    assert got.value == pytest.approx(0.6472, abs=5e-5)
    got = closed_form_energy(spec("cycle", n=6), VertexClass.ANY)
    assert got.closed_form
    assert got.value == pytest.approx(2 / (6 * math.sin(math.pi / 6)))


def test_cycle_residue_three_flagged_as_derived():
    got = closed_form_energy(spec("cycle", n=7), VertexClass.ANY)
    assert not got.closed_form
    # exact spectrum of the cycle: eigenvalues cos(2 pi k / n)
    expected = sum(abs(math.cos(2 * math.pi * k / 7)) for k in range(7)) / 7
    assert got.value == pytest.approx(expected, abs=1e-14)


def test_invalid_class_pairings_rejected():
    with pytest.raises(ValueError, match="not defined"):
        closed_form_energy(spec("complete", n=4), VertexClass.HUB)
    with pytest.raises(ValueError, match="not defined"):
        closed_form_energy(spec("star", n=4), VertexClass.SIDE_A)
    with pytest.raises(ValueError, match="no known closed-form"):
        closed_form_energy(spec("path", n=4), VertexClass.ANY)


# ------------------------------------------------------- numerical agreement

ALL_SPECS = (
    [spec("complete", n=n) for n in (2, 3, 7, 20, 50)]
    + [spec("cycle", n=n) for n in (3, 4, 5, 6, 7, 12, 13, 14, 15, 49, 50)]
    + [spec("star", n=n) for n in (2, 3, 9, 50)]
    + [spec("complete_bipartite", n1=a, n2=b) for a, b in ((1, 1), (2, 3), (7, 7), (20, 30))]
    + [spec("friendship", triangles=t) for t in (1, 2, 3, 11, 24)]
)


@pytest.mark.parametrize("fam", ALL_SPECS, ids=lambda s: s.label())
def test_numerical_energies_match_formulas(fam):
    g = generate(fam)
    vec = vertex_energies(g)
    for cls, members in vertex_classes(fam).items():
        expected = closed_form_energy(fam, cls)
        values = [vec.energies[v] for v in members]
        # orbit symmetry first, then the formula itself
        for v in values:
            assert v == pytest.approx(values[0], abs=1e-10)
        if expected.closed_form or fam.kind is FamilyKind.CYCLE:
            assert values[0] == pytest.approx(expected.value, abs=1e-8)


def test_star_leaf_center_ratio():
    for n in (3, 5, 17):
        s = spec("star", n=n)
        center = closed_form_energy(s, VertexClass.HUB).value
        leaf = closed_form_energy(s, VertexClass.LEAF).value
        assert leaf * (n - 1) == pytest.approx(center, abs=1e-12)


# ---------------------------------------------------------------- friendship

def test_friendship_spectrum_shapes():
    assert friendship_spectrum(1) == ((1.0, 1), (-0.5, 2))
    assert friendship_spectrum(2) == ((1.0, 1), (0.5, 1), (-0.5, 3))
    for t in (1, 2, 5, 9):
        total = sum(lam * mult for lam, mult in friendship_spectrum(t))
        count = sum(mult for _, mult in friendship_spectrum(t))
        assert total == pytest.approx(0.0, abs=1e-12)
        assert count == 2 * t + 1


@pytest.mark.parametrize("t", [1, 2, 3, 8, 24])
def test_friendship_spectrum_matches_eigensolver(t):
    dec = eigen_symmetric(randic_matrix(friendship(t)))
    expected = np.concatenate(
        [np.full(mult, lam) for lam, mult in friendship_spectrum(t)]
    )
    expected = np.sort(expected)[::-1]
    np.testing.assert_allclose(dec.values, expected, atol=1e-9)


def test_friendship_total_energy():
    for t in (1, 2, 7, 24):
        assert graph_energy(friendship(t)) == pytest.approx(t + 1.0, abs=1e-9)


def test_friendship_hub_weights():
    x11, x12, x13 = friendship_hub_weights()
    assert x11 == pytest.approx(1 / 3, abs=1e-12)
    assert x12 == pytest.approx(0.0, abs=1e-12)
    assert x13 == pytest.approx(2 / 3, abs=1e-12)
    assert x11 + x12 + x13 == pytest.approx(1.0, abs=1e-12)
    hub = x11 * 1.0 + x12 * 0.5 + x13 * 0.5
    assert hub == pytest.approx(2 / 3, abs=1e-12)


def test_friendship_hub_weights_match_eigensolver():
    t = 5
    dec = eigen_symmetric(randic_matrix(friendship(t)))
    w = dec.vectors[0, :] ** 2
    groups = {1.0: 0.0, 0.5: 0.0, -0.5: 0.0}
    for lam, weight in zip(dec.values, w):
        key = min(groups, key=lambda g: abs(g - lam))
        groups[key] += weight
    x11, x12, x13 = friendship_hub_weights()
    assert groups[1.0] == pytest.approx(x11, abs=1e-9)
    assert groups[0.5] == pytest.approx(x12, abs=1e-9)
    assert groups[-0.5] == pytest.approx(x13, abs=1e-9)

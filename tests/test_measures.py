"""Atomic measures, moments with the 1/0 = inf convention, and the
consistency-identity checkers on hand-evaluated examples."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeshift as ts
from treeshift import AtomicMeasure
from treeshift.errors import InfiniteTermError
from treeshift.measures import atoms_view, check_cc_dt, check_consist6_at, moment
from treeshift.rationals import enclosure, render_interval

HALF = Fraction(1, 2)


def two_child_data():
    """u with children a, b: |lambda_a|^2 = 1/2, |lambda_b|^2 = 1,
    mu_a = delta_1, mu_b = delta_2; the consistent mu_u is (1/2)(d1 + d2)."""
    return [
        (HALF, AtomicMeasure.dirac(1)),
        (Fraction(1), AtomicMeasure.dirac(2)),
    ]


# --- AtomicMeasure basics ---


def test_atoms_validated():
    with pytest.raises(ValueError):
        AtomicMeasure([(1, HALF)])  # mass not 1
    with pytest.raises(ValueError):
        AtomicMeasure([(1, HALF), (1, HALF)])  # duplicate location
    with pytest.raises(ValueError):
        AtomicMeasure([(-1, Fraction(1))])  # negative location
    m = AtomicMeasure([(2, HALF), (1, HALF)])
    assert m.support() == (1, 2)  # sorted


def test_json_roundtrip():
    m = AtomicMeasure([(Fraction(1, 3), HALF), (2, HALF)])
    assert AtomicMeasure.from_json(m.to_json()) == m
    assert m.to_json() == {"atoms": [["1/3", "1/2"], ["2", "1/2"]]}


# --- moments ---


def test_dirac_moment():
    assert moment(AtomicMeasure.dirac(Fraction(3, 2)), 4) == Fraction(81, 16)


def test_moment_at_zero_negative_order_is_infinite():
    assert moment(AtomicMeasure.dirac(0), -1) is math.inf


def test_moment_hand_value():
    m = AtomicMeasure([(1, HALF), (2, HALF)])
    assert moment(m, 2) == Fraction(5, 2)  # (1/2)*1 + (1/2)*4


def test_moment_zero_order_counts_zero_atom():
    m = AtomicMeasure([(0, HALF), (3, HALF)])
    assert moment(m, 0) == 1  # 0^0 = 1
    assert moment(m, 1) == Fraction(3, 2)
    assert moment(m, -1) is math.inf


@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=Fraction(1, 10), max_value=10, max_denominator=50),
            st.integers(min_value=1, max_value=20),
        ),
        min_size=1,
        max_size=6,
        unique_by=lambda tp: tp[0],
    ),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=150, deadline=None)
def test_moment_finiteness_monotone(atom_data, n):
    """Probability measures with finite n-th moment have finite lower moments
    (trivially true for atomic measures away from 0; exercised anyway)."""
    total = sum(w for _, w in atom_data)
    m = AtomicMeasure([(t, Fraction(w, total)) for t, w in atom_data])
    values = [moment(m, k) for k in range(n + 1)]
    assert all(v is not math.inf for v in values)


# --- consist6 checker ---


def test_consist6_consistent_two_child_system():
    mu_u = AtomicMeasure([(1, HALF), (2, HALF)])
    result = check_consist6_at(mu_u, 0, two_child_data())
    assert result.max_residual == 0


def test_consist6_leaf_with_eps():
    # no children: the identity forces mu_u = eps_u * delta_0
    result = check_consist6_at(AtomicMeasure.dirac(0), 1, [])
    assert result.max_residual == 0
    assert result.implied_eps == 1


def test_consist6_wrong_parent_measure():
    result = check_consist6_at(AtomicMeasure.dirac(1), 0, two_child_data())
    # |1 - 1/2| at atom 1 and |0 - 1/2| at atom 2
    assert result.max_residual == HALF
    assert dict(result.per_atom)[Fraction(1)] == HALF
    assert dict(result.per_atom)[Fraction(2)] == HALF


def test_consist6_zero_times_infinity_convention():
    # child atom at 0 with zero weight contributes nothing
    children = [(Fraction(0), AtomicMeasure.dirac(0))]
    result = check_consist6_at(AtomicMeasure.dirac(0), 1, children)
    assert result.max_residual == 0


def test_consist6_infinite_term():
    children = [(Fraction(1), AtomicMeasure.dirac(0))]
    with pytest.raises(InfiniteTermError):
        check_consist6_at(AtomicMeasure.dirac(0), 0, children)


# --- cc-dt checker ---


def test_cc_dt_consistent():
    mu_x = AtomicMeasure([(1, HALF), (2, HALF)])
    result = check_cc_dt(mu_x, two_child_data())
    assert result.max_residual == 0  # 1*(1/2) = (1/2)*1 and 2*(1/2) = 1*1


def test_cc_dt_no_children_delta0():
    assert check_cc_dt(AtomicMeasure.dirac(0), []).max_residual == 0


def test_cc_dt_scaled_children():
    mu_x = AtomicMeasure([(1, HALF), (2, HALF)])
    doubled = [(w2 * 2, m) for w2, m in two_child_data()]
    result = check_cc_dt(mu_x, doubled)
    assert dict(result.per_atom)[Fraction(1)] == HALF  # |1/2 - 1|
    assert result.max_residual == 1  # worst atom is t = 2: |1 - 2|


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=9),
            st.fractions(min_value=0, max_value=3, max_denominator=20),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda tp: tp[0],
    )
)
@settings(max_examples=100, deadline=None)
def test_consist6_zero_implies_cc_dt_zero(child_spec):
    """Any system built to satisfy the consistency identity exactly also
    satisfies the derived first-moment identity exactly (on atoms this is
    an algebraic consequence)."""
    children = [
        (w2, AtomicMeasure.dirac(t)) for t, w2 in child_spec if w2 > 0
    ]
    mass = sum((w2 / m.support()[0] for w2, m in children), Fraction(0))
    if mass == 0:
        mu_u = AtomicMeasure.dirac(0)
        eps = Fraction(1)
    else:
        # normalize child weights so the induced parent measure has mass 1
        children = [(w2 / mass, m) for w2, m in children]
        mu_u = AtomicMeasure(
            [(m.support()[0], (w2 / Fraction(m.support()[0]))) for w2, m in children]
        )
        eps = Fraction(0)
    assert check_consist6_at(mu_u, eps, children).max_residual == 0
    assert check_cc_dt(mu_u, children).max_residual == 0


def test_consist6_zero_forces_no_child_mass_at_zero(artifact_n1):
    """In a consistent system, children with nonzero weight carry no mass at
    0: substituting sigma = {0} would otherwise blow up the right side."""
    art = artifact_n1
    for u in (ts.ZERO, ts.Branch(3, 4)):
        mu = art.measures.measure_at(u)
        view = atoms_view(mu, 50)
        assert all(t > 0 for t, _ in view)


# --- windowed mixture views ---


def test_mixture_view_merges_and_masses(artifact_n1):
    mix = artifact_n1.measures.mixtures[0]
    view = atoms_view(mix, 5)
    assert [t for t, _ in view] == [1, 2, 3, 4, 5]
    c = artifact_n1.c  # the prefactor of mu_0: both are 1/M_0 rounded outward
    assert mix.prefactor == c
    for i, (t, mass) in enumerate(view, start=1):
        alpha_i = Fraction(1, i**3)  # each mass c alpha_i, rounded outward to 40 digits
        assert mix.atom_mass(i) == render_interval(c * alpha_i)
        assert mass == enclosure(mix.atom_mass(i))
        assert mass.lo <= c.lo * alpha_i and c.hi * alpha_i <= mass.hi


def test_mixture_needs_limit(artifact_n1):
    with pytest.raises(ValueError):
        atoms_view(artifact_n1.measures.mixtures[0])

import math

import pytest

from spinlab.errors import ArgumentError
from spinlab.mixture import Mixture, pure, xi_eval
from spinlab.runner import parse_mixture


def test_pure_p4_values():
    m = pure(4)
    assert xi_eval(m, 1.0, 0) == 1.0
    assert xi_eval(m, 1.0, 2) == 12.0


def test_mixed_first_derivative():
    m = Mixture({2: 1.0, 4: 1.0})
    assert xi_eval(m, 0.5, 1) == pytest.approx(2 * 0.5 + 4 * 0.125, abs=0)


def test_derivative_orders_and_domain():
    m = pure(4)
    assert xi_eval(m, 0.7, 3) == pytest.approx(24 * 0.7)
    assert xi_eval(m, 0.7, 4) == pytest.approx(24.0)
    with pytest.raises(ArgumentError):
        xi_eval(m, 0.5, 5)
    with pytest.raises(ArgumentError):
        xi_eval(m, 2.5, 0)
    with pytest.raises(ArgumentError):
        xi_eval(m, -1.5, 0)


def test_invariants():
    with pytest.raises(ArgumentError):
        Mixture({3: 1.0})
    with pytest.raises(ArgumentError):
        Mixture({2: -0.5})
    with pytest.raises(ArgumentError):
        Mixture({2: 1.0}, h=-1.0)
    with pytest.raises(ArgumentError):
        Mixture({})
    # NaN passes a sign check, and an infinite gamma_p or h is no model
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ArgumentError):
            Mixture({2: bad})
        with pytest.raises(ArgumentError):
            Mixture({2: 0.5}, h=bad)
    with pytest.raises(ArgumentError):
        parse_mixture("nan*p2")
    # field-only models are expressible
    m = Mixture({2: 0.0}, h=1.0)
    assert m.xi(1.0) == 0.0


def test_mixture_is_hashable_and_sorted():
    m = Mixture({4: 1.0, 2: 0.5})
    assert m.ps == (2, 4)
    assert hash(m) == hash(Mixture({2: 0.5, 4: 1.0}))

"""Divisor enumeration from factored norms.

The package factors norm(x) (trial division, then Pollard-Brent rho) and
solves the norm equation only for the norms up to sqrt(norm(x)); each
solution u dividing x also brings x/u.  These tests hold it to the
trial-division enumerators it replaced, kept here as references.
"""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydecomp import QuadraticField, QuadraticIntRing, ZZ
from polydecomp.domains import _divisors, _factor

DS = (-1, -2, -3, -5, -6, -7, -15)
NORM_MAX = 10 ** 6


def reference_int_divisors(n):
    """Positive divisors of |n| in ascending order, by trial division to
    sqrt(|n|)."""
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def reference_divisors(ring, x):
    """The classes of divisors of x, found among the elements of every
    norm that divides norm(x)."""
    reps = {}
    for k in reference_int_divisors(x.norm()):
        for cand in ring.elements_of_norm(k):
            if ring.divides_exact(cand, x) is None:
                continue
            rep = ring.associate_representative(cand)
            reps[(rep.a, rep.b)] = rep
    return sorted(reps.values(), key=lambda z: (z.norm(), z.a, z.b))


def reference_is_irreducible(ring, x):
    return len(reference_divisors(ring, x)) == 2


def trial_factor(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _coords(xs):
    return [(x.a, x.b) for x in xs]


class TestFactor:
    def test_matches_trial_division_below_20000(self):
        for n in range(1, 20000):
            assert _factor(n) == trial_factor(n), n

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, NORM_MAX))
    def test_matches_trial_division_below_10_6(self, n):
        assert _factor(n) == trial_factor(n)
        assert _divisors(n) == reference_int_divisors(n)

    @pytest.mark.parametrize("primes", [
        (1000000000039, 1000000000061),         # near 1e12
        (1821275395019, 1821275395031),         # near 1.8e12: the worst case
        (1000003, 1000003, 1000033),            # a square factor
        (101, 101, 101, 10007),
    ])
    def test_splits_products_of_large_primes(self, primes):
        n = math.prod(primes)
        expected = {p: primes.count(p) for p in sorted(set(primes))}
        factors = _factor(n)
        assert factors == expected
        assert list(factors) == sorted(expected)

    def test_small_values(self):
        assert _factor(1) == {}
        assert _factor(97) == {97: 1}
        assert _factor(101) == {101: 1}
        assert _factor(101 * 101) == {101: 2}
        assert _factor(2 ** 81) == {2: 81}
        assert _divisors(1) == [1]


def _elements(d):
    """Elements of O_d with norm 1..NORM_MAX: random ones, and products
    of small ones, which have many divisors."""
    ring = QuadraticIntRing(d)
    bmax = math.isqrt(4 * NORM_MAX // -d)
    coords = st.integers(-bmax, bmax).flatmap(
        lambda b: st.tuples(st.integers(-1000 - abs(b), 1000 + abs(b)),
                            st.just(b)))
    small = st.tuples(st.integers(-5, 5), st.integers(-3, 3))
    products = st.lists(small, min_size=1, max_size=5).map(
        lambda cs: math.prod((ring.element(a, b) for a, b in cs),
                             start=ring.one))
    return (coords.map(lambda ab: ring.element(*ab)) | products).filter(
        lambda x: 0 < x.norm() <= NORM_MAX)


class TestAgainstTrialDivision:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-NORM_MAX, NORM_MAX).filter(bool))
    def test_integer_divisors(self, n):
        assert ZZ.divisors_up_to_associates(n) == reference_int_divisors(n)

    @pytest.mark.parametrize("d", DS)
    def test_order_divisors_and_irreducibility(self, d):
        ring = QuadraticIntRing(d)

        @settings(max_examples=120, deadline=None)
        @given(_elements(d))
        def check(x):
            expected = reference_divisors(ring, x)
            assert _coords(ring.divisors_up_to_associates(x)) == \
                _coords(expected)
            if x.norm() > 1:
                assert ring.is_irreducible(x) == \
                    reference_is_irreducible(ring, x)

        check()

    @pytest.mark.parametrize("d", DS)
    def test_every_element_of_small_norm(self, d):
        ring = QuadraticIntRing(d)
        for k in range(2, 400):
            for x in ring.elements_of_norm(k):
                assert _coords(ring.divisors_up_to_associates(x)) == \
                    _coords(reference_divisors(ring, x))
                assert ring.is_irreducible(x) == \
                    reference_is_irreducible(ring, x)


class TestOneDivisionPerClass:
    """The search divides x once per associate class of the solutions of
    each norm k | norm(x) with k^2 <= norm(x), by that class's
    representative; u and -u would give the same divisor list."""

    @pytest.mark.parametrize("d", DS)
    def test_one_division_per_class(self, d, monkeypatch):
        ring = QuadraticIntRing(d)
        units = len(ring.units())
        divisors = []
        original = QuadraticIntRing.divides_exact

        def counted(self, x, y):
            if sys._getframe(1).f_code is \
                    QuadraticIntRing._divisor_pairs.__code__:
                divisors.append(x)
            return original(self, x, y)

        monkeypatch.setattr(QuadraticIntRing, "divides_exact", counted)

        @settings(max_examples=60, deadline=None)
        @given(_elements(d))
        def check(x):
            del divisors[:]
            ring.divisors_up_to_associates(x)
            n = x.norm()
            expected = set()
            for k in reference_int_divisors(n):
                if k * k <= n:
                    solutions = ring.elements_of_norm(k)
                    assert len(solutions) % units == 0
                    expected |= {(z.a, z.b) for z in map(
                        ring.associate_representative, solutions)}
            assert len(divisors) == len(expected)
            assert set(_coords(divisors)) == expected

        check()


class TestRepresentativeOnlyForTheQuotient:
    """Each u that _divisor_pairs yields is its class's representative
    already, so divisors_up_to_associates takes the representative of the
    quotient x/u only: once per yielded triple, never of u."""

    @pytest.mark.parametrize("d", DS)
    def test_one_call_per_pair(self, d, monkeypatch):
        ring = QuadraticIntRing(d)
        yielded, args = [], []
        pairs = QuadraticIntRing._divisor_pairs
        representative = QuadraticIntRing.associate_representative

        def recorded_pairs(self, x):
            for item in pairs(self, x):
                yielded.append(item)
                yield item

        def counted(self, x):
            if sys._getframe(1).f_code is \
                    QuadraticIntRing.divisors_up_to_associates.__code__:
                args.append(x)
            return representative(self, x)

        monkeypatch.setattr(QuadraticIntRing, "_divisor_pairs", recorded_pairs)
        monkeypatch.setattr(QuadraticIntRing, "associate_representative",
                            counted)

        @settings(max_examples=60, deadline=None)
        @given(_elements(d))
        def check(x):
            del yielded[:], args[:]
            divisors = ring.divisors_up_to_associates(x)
            assert len(args) == len(yielded) > 0
            assert all(arg is item[-1] for arg, item in zip(args, yielded))
            for k, u, _ in yielded:
                assert k == u.norm()
                assert representative(ring, u) == u
                assert u in divisors

        check()


class TestNormAtTheSquareRoot:
    """Divisors whose norm is exactly sqrt(norm(x)) are found; a search
    that stopped below the square root would miss them."""

    def test_five_over_the_gaussian_integers(self):
        gauss = QuadraticIntRing(-1)
        five = gauss.element(5)
        assert [str(u) for u in gauss.divisors_up_to_associates(five)] == \
            ["1", "2-w", "2+w", "5"]
        assert not gauss.is_irreducible(five)
        assert gauss.is_irreducible(gauss.element(3))

    def test_nine_over_z_sqrt_minus_2(self):
        ring = QuadraticIntRing(-2)
        assert [str(u) for u in ring.divisors_up_to_associates(
            ring.element(9))] == ["1", "1-w", "1+w", "1-2*w", "1+2*w", "3",
                                  "3-3*w", "3+3*w", "9"]
        # 1+2w has norm 9 = sqrt(81) and is (1-w)^2 up to a unit
        assert not ring.is_irreducible(ring.element(1, 2))


class TestOperandsAlreadyInTheRing:
    def test_ring_methods_still_coerce_other_operands(self):
        ring = QuadraticIntRing(-5)
        field = QuadraticField(-5)
        assert ring.divides_exact(2, 6) == ring.element(3)
        assert ring.divides_exact(field.element(2), ring.element(6)) == 3
        assert ring.norm(3) == 9
        assert ring.is_unit(-1) and not ring.is_unit(field.element(2))
        assert ring.are_associates(2, -2)
        assert ring.associate_representative(-7) == 7
        assert ring.divisors_up_to_associates(6) == \
            ring.divisors_up_to_associates(ring.element(6))
        with pytest.raises(TypeError):
            ring.norm(field.element(1, 1) / 2)

    @pytest.mark.parametrize("make", [QuadraticIntRing(-5).element,
                                      QuadraticIntRing(-15).element,
                                      QuadraticField(-5).element])
    def test_bool_operands_are_refused(self, make):
        x = make(1, 1)
        for op in (lambda: x * True, lambda: True * x, lambda: x + False,
                   lambda: False - x, lambda: x / True):
            with pytest.raises(TypeError):
                op()

    def test_int_operands_keep_the_coordinate_type(self):
        ring, field = QuadraticIntRing(-15), QuadraticField(-15)
        x = ring.element(2, 3) * 4
        assert (x.dom, type(x.a), type(x.b)) == (ring, int, int)
        assert x == ring.element(8, 12)
        y = field.element(1, 1) * 4 + 1
        assert (y.dom, type(y.a), type(y.b)) == (field, Fraction, Fraction)
        assert y == field.element(5, 4)

"""Coefficient domains: quadratic orders, norms, divisors, subrings."""

import copy
import math
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polydecomp import (CapabilityError, Decomposition, NoLinearTermRing,
                        Polynomial, PolynomialDomain, QuadraticElement,
                        QuadraticField, QuadraticIntRing,
                        Tier, QQ, QT, ZT, ZT23, ZZ, compose,
                        decompose_over_field, descend_element,
                        descend_poly, embed_element, embed_poly, hull_of,
                        quartic_ring_decide, require_tier)
from polydecomp.domains import (_MR_EXACT_BELOW, _check_d, _decimal,
                                _format_two_coords)

R5 = QuadraticIntRing(-5)
K5 = QuadraticField(-5)
R6 = QuadraticIntRing(-6)
O15 = QuadraticIntRing(-15)
K15 = QuadraticField(-15)
GAUSS = QuadraticIntRing(-1)
O3 = QuadraticIntRing(-3)


#: Every Carmichael number below 10^6: composite, yet a Fermat
#: pseudoprime to every base prime to it.
CARMICHAEL_BELOW_1E6 = [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341, 41041,
    46657, 52633, 62745, 63973, 75361, 101101, 115921, 126217, 162401,
    172081, 188461, 252601, 278545, 294409, 314821, 334153, 340561, 399001,
    410041, 449065, 488881, 512461, 530881, 552721, 656601, 658801, 670033,
    748657, 825265, 838201, 852841, 997633]


def w5(a, b=0):
    return R5.element(a, b)


class TestIntegerRing:
    def test_basics(self):
        assert ZZ.coerce(3) == 3
        with pytest.raises(TypeError):
            ZZ.coerce(True)
        assert ZZ.norm(-7) == 7
        assert ZZ.are_associates(3, -3)
        assert not ZZ.are_associates(3, 6)

    def test_divides_exact(self):
        assert ZZ.divides_exact(3, 12) == 4
        assert ZZ.divides_exact(-3, 12) == -4
        assert ZZ.divides_exact(5, 12) is None
        assert ZZ.divides_exact(3, 0) == 0

    def test_divisors_and_irreducibles(self):
        assert ZZ.divisors_up_to_associates(12) == [1, 2, 3, 4, 6, 12]
        assert ZZ.is_irreducible(2)
        assert ZZ.is_irreducible(-13)
        assert not ZZ.is_irreducible(6)
        with pytest.raises(ValueError):
            ZZ.is_irreducible(1)
        with pytest.raises(ValueError):
            ZZ.is_irreducible(0)

    def test_irreducibles_agree_with_trial_division_below_1e5(self):
        limit = 10 ** 5
        composite = bytearray(limit)
        for p in range(2, 317):
            if not composite[p]:
                composite[p * p::p] = b"\1" * len(range(p * p, limit, p))
        for x in range(2, limit):
            prime = not composite[x]
            assert ZZ.is_irreducible(x) is prime, x
            assert ZZ.is_irreducible(-x) is prime, x

    @pytest.mark.parametrize("n", [
        3215031751,                   # strong pseudoprime to 2, 3, 5, 7
        2152302898747,                # ... to the primes up to 11
        3474749660383,                # ... up to 13
        341550071728321,              # ... up to 17
        3825123056546413051,          # ... up to 23
        318665857834031151167461,     # ... up to 37
        (2 ** 61 - 1) * (2 ** 31 - 1),   # past the bound, still refuted
    ] + CARMICHAEL_BELOW_1E6)
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not ZZ.is_irreducible(n)
        assert not ZZ.is_irreducible(-n)

    def test_carmichael_list_meets_korselt(self):
        for n in CARMICHAEL_BELOW_1E6:
            factors, rest, p = [], n, 2
            while rest > 1:
                while rest % p == 0:
                    factors.append(p)
                    rest //= p
                p += 1
            assert len(factors) >= 3 and len(set(factors)) == len(factors)
            assert all((n - 1) % (q - 1) == 0 for q in factors), n

    @pytest.mark.parametrize("p", [
        2 ** 31 - 1, 10 ** 9 + 7, 999999999989, 2 ** 61 - 1,
        10 ** 24 + 7,
        3317044064679887385961813,    # the largest prime below the bound
    ])
    def test_primes_below_the_bound(self, p):
        assert ZZ.is_irreducible(p)
        assert ZZ.is_irreducible(-p)

    @pytest.mark.parametrize("n", [
        3317044064679887385961981,    # strong pseudoprime to the 13 bases
        2 ** 89 - 1,                  # a Mersenne prime past the bound
    ])
    def test_probable_primes_past_the_bound_are_undecided(self, n):
        with pytest.raises(ValueError, match="3317044064679887385961981"):
            ZZ.is_irreducible(n)

    def test_elements_of_norm(self):
        assert ZZ.elements_of_norm(0) == [0]
        assert set(ZZ.elements_of_norm(4)) == {4, -4}
        assert ZZ.elements_of_norm(-1) == []


class TestTiers:
    def test_ordering(self):
        assert Tier.RING < Tier.QALGEBRA < Tier.FIELD

    def test_require_tier(self):
        require_tier(QQ, Tier.FIELD, "anything")
        require_tier(QT, Tier.QALGEBRA, "integer division")
        with pytest.raises(CapabilityError):
            require_tier(ZZ, Tier.QALGEBRA, "integer division")
        with pytest.raises(CapabilityError):
            require_tier(QT, Tier.FIELD, "general division")

    def test_divisor_enumeration_is_declared(self):
        for dom, expected in ((ZZ, True), (R5, True), (O15, True),
                              (QQ, False), (K5, False), (ZT, False),
                              (QT, False), (ZT23, False)):
            assert dom.enumerates_divisors is expected, dom
            assert callable(getattr(dom, "divisors_up_to_associates",
                                    None)) is expected, dom

    def test_divides_exact_by_an_integer(self):
        assert QQ.divides_exact(2, Fraction(3)) == Fraction(3, 2)
        p = Polynomial(QQ, [Fraction(1), Fraction(3)], "t")
        assert QT.divides_exact(3, p) == Polynomial(
            QQ, [Fraction(1, 3), Fraction(1)], "t")
        # Z[t] divides too, and answers None when the quotient leaves it
        assert ZT.divides_exact(2, Polynomial(ZZ, [2], "t")) == ZT.one
        assert ZT.divides_exact(2, Polynomial(ZZ, [3], "t")) is None


class TestQuadraticRingConstruction:
    def test_cached_singletons(self):
        assert QuadraticIntRing(-5) is R5
        assert QuadraticField(-5) is K5

    def test_rejects_bad_d(self):
        with pytest.raises(ValueError):
            QuadraticIntRing(0)
        with pytest.raises(ValueError):
            QuadraticIntRing(4)
        with pytest.raises(ValueError):
            QuadraticIntRing(-4)      # not squarefree
        with pytest.raises(ValueError):
            QuadraticIntRing(-12)

    def test_squarefree_test_matches_brute_force(self):
        for n in range(1, 3000):
            squarefree = all(n % (i * i) for i in range(2, math.isqrt(n) + 1))
            try:
                _check_d(-n)
            except ValueError as exc:
                assert not squarefree and "not squarefree" in str(exc)
            else:
                assert squarefree

    @pytest.mark.parametrize("n, squarefree", [
        (1000003 ** 2, False),              # the cofactor is a square
        (2 * 1000003 ** 2, False),
        (49 * 1000003 * 1000033, False),
        (1000003 * 1000033, True),          # two primes above the cube root
        (2 * 3 * 1000003 * 1000033, True),
        (10 ** 18 - 11, True),
        (4 * 10 ** 17, False),
        (10 ** 18 + 3, True),               # a prime past the old bound
        # four primes near 10^6: rho splits the cofactor three times
        (1000003 * 1000033 * 1000037 * 1000039, True),
        (1000003 ** 2 * 1000033 * 1000037, False),
    ])
    def test_squarefree_test_near_the_bound(self, n, squarefree):
        if squarefree:
            _check_d(-n)
        else:
            with pytest.raises(ValueError, match="not squarefree"):
                _check_d(-n)

    def test_d_past_the_bound_is_rejected_at_once(self):
        # factoring is exact only below the Miller-Rabin bound, so |d| at
        # or above it is rejected before any factoring, squares included
        for n in (_MR_EXACT_BELOW, 10 ** 4000 + 1, 10 ** 4000):
            with pytest.raises(ValueError,
                               match=f">= {_MR_EXACT_BELOW} is not supported"):
                _check_d(-n)

    def test_names_and_basis(self):
        assert R5.name == "Z[sqrt(-5)]"
        assert not R5.half_basis
        assert O15.name == "O(-15)"
        assert O15.half_basis
        assert K15.name == "Q(sqrt(-15))"


class TestQuadraticArithmetic:
    def test_sqrt_basis_multiplication(self):
        # (1 + w)(1 - w) = 1 - d = 6 for d = -5
        assert w5(1, 1) * w5(1, -1) == w5(6)
        assert w5(0, 1) * w5(0, 1) == w5(-5)

    def test_half_basis_multiplication(self):
        # w = (1 + sqrt(-15))/2 satisfies w^2 = w - 4
        w = O15.element(0, 1)
        assert w * w == O15.element(-4, 1)
        wbar = O15.element(1, -1)
        assert w * wbar == O15.element(4)          # norm of w
        assert wbar * wbar == O15.element(-3, -1)

    def test_norm_values(self):
        assert R5.norm(w5(1, 1)) == 6
        assert R5.norm(w5(2, 3)) == 4 + 45
        assert O15.norm(O15.element(0, 1)) == 4
        assert O15.norm(O15.element(1, -1)) == 4
        assert GAUSS.norm(GAUSS.element(3, 2)) == 13

    def test_norm_is_multiplicative(self):
        rng = random.Random(11)
        for ring in (R5, R6, O15, GAUSS, O3):
            for _ in range(250):
                x = ring.element(rng.randint(-9, 9), rng.randint(-9, 9))
                y = ring.element(rng.randint(-9, 9), rng.randint(-9, 9))
                assert ring.norm(x * y) == ring.norm(x) * ring.norm(y)

    def test_conjugate_gives_norm(self):
        rng = random.Random(13)
        for ring in (R5, O15):
            for _ in range(200):
                x = ring.element(rng.randint(-9, 9), rng.randint(-9, 9))
                assert x * x.conjugate() == ring.element(ring.norm(x))

    def test_int_mixing(self):
        assert w5(2, 1) + 3 == w5(5, 1)
        assert 2 * w5(1, 1) == w5(2, 2)
        assert w5(4) == 4 and hash(w5(4)) == hash(4)
        assert w5(4, 1) != 4


class TestUnitsAndAssociates:
    def test_unit_groups(self):
        assert set(R5.units()) == {w5(1), w5(-1)}
        assert len(GAUSS.units()) == 4
        assert len(O3.units()) == 6

    def test_are_associates(self):
        assert R5.are_associates(w5(1, 1), w5(-1, -1))
        assert not R5.are_associates(w5(1, 1), w5(1, -1))
        i = GAUSS.element(0, 1)
        assert GAUSS.are_associates(GAUSS.element(1, 2), i * GAUSS.element(1, 2))

    def test_representative_is_canonical(self):
        rng = random.Random(17)
        for ring in (R5, GAUSS, O3):
            for _ in range(100):
                x = ring.element(rng.randint(-9, 9), rng.randint(-9, 9))
                if x == ring.element(0):
                    continue
                reps = {ring.associate_representative(x * u)
                        for u in ring.units()}
                assert len(reps) == 1


def reference_associate_representative(ring, x):
    """The unit multiple of x with the largest coordinate pair, found by
    multiplying by every unit."""
    return max((x * u for u in ring.units()), key=lambda z: (z.a, z.b))


ASSOCIATE_DS = (-1, -2, -3, -5, -6, -7, -15)


class TestAssociateRepresentative:
    """Orders whose units are 1 and -1 pick x or -x by sign; the others
    multiply by every unit.  Both agree with the product loop."""

    @pytest.mark.parametrize("d", ASSOCIATE_DS)
    def test_every_element_of_small_norm(self, d):
        ring = QuadraticIntRing(d)
        for k in range(400):
            for x in ring.elements_of_norm(k):
                rep = ring.associate_representative(x)
                assert rep == reference_associate_representative(ring, x)
                assert rep.dom is ring and type(rep.a) is int

    @pytest.mark.parametrize("d", ASSOCIATE_DS)
    def test_random_elements(self, d):
        ring = QuadraticIntRing(d)
        coord = st.integers(-10 ** 12, 10 ** 12)

        @settings(max_examples=200, deadline=None)
        @given(coord, coord)
        def check(a, b):
            x = ring.element(a, b)
            assert ring.associate_representative(x) == \
                reference_associate_representative(ring, x)

        check()


class TestDividesAndDivisors:
    def test_divides_exact(self):
        # 6 = (1+w)(1-w) in Z[sqrt(-5)]
        assert R5.divides_exact(w5(1, 1), w5(6)) == w5(1, -1)
        assert R5.divides_exact(w5(2), w5(1, 1)) is None
        assert R5.divides_exact(w5(1, -1), w5(-4, -2)) == w5(1, -1)

    def test_elements_of_norm_against_brute_force(self):
        # |a|, |b| <= 30 holds for every element of norm <= 300 in these
        # rings; the tightest is O(-3), where |a| reaches 27
        for d in (-1, -2, -5, -6, -3, -7, -15):
            ring = QuadraticIntRing(d)
            by_norm = {}
            for a in range(-30, 31):
                for b in range(-30, 31):
                    by_norm.setdefault(ring.norm(ring.element(a, b)), []) \
                        .append((a, b))
            for k in range(301):
                assert [(x.a, x.b) for x in ring.elements_of_norm(k)] \
                    == sorted(by_norm.get(k, [])), (d, k)

    def test_norm_two_and_three_empty_in_r5(self):
        assert R5.elements_of_norm(2) == []
        assert R5.elements_of_norm(3) == []

    def test_divisor_sets_frozen(self):
        assert R5.divisors_up_to_associates(w5(2)) == [w5(1), w5(2)]
        divs = R5.divisors_up_to_associates(w5(6))
        assert divs == [w5(1), w5(2), w5(1, -1), w5(1, 1), w5(3), w5(6)]
        lead = w5(-4, -2)       # (1 - w)^2
        divs = R5.divisors_up_to_associates(lead)
        assert divs == [w5(1), w5(2), w5(1, -1), w5(2, 1), w5(4, 2)]

    def test_divisors_multiply_back(self):
        rng = random.Random(23)
        for ring in (R5, R6, O15):
            for _ in range(25):
                x = ring.element(rng.randint(-6, 6), rng.randint(-6, 6))
                if ring.norm(x) == 0:
                    continue
                for u in ring.divisors_up_to_associates(x):
                    q = ring.divides_exact(u, x)
                    assert q is not None and u * q == x

    def test_irreducibility_facts(self):
        assert R5.is_irreducible(w5(2))
        assert R5.is_irreducible(w5(3))
        assert R5.is_irreducible(w5(1, 1))
        assert R5.is_irreducible(w5(1, -1))
        assert not R5.is_irreducible(w5(6))
        assert R6.is_irreducible(R6.element(2))
        assert R6.is_irreducible(R6.element(3))
        assert R6.is_irreducible(R6.element(0, 1))
        assert O15.is_irreducible(O15.element(2))
        assert O15.is_irreducible(O15.element(0, 1))
        assert O15.is_irreducible(O15.element(1, -1))
        assert GAUSS.is_irreducible(GAUSS.element(1, 1))
        assert not GAUSS.is_irreducible(GAUSS.element(2))

    def test_two_inequivalent_factorizations_of_six(self):
        assert w5(2) * w5(3) == w5(6)
        assert w5(1, 1) * w5(1, -1) == w5(6)
        assert not R5.are_associates(w5(2), w5(1, 1))
        assert not R5.are_associates(w5(2), w5(1, -1))


class TestFieldElements:
    def test_field_arithmetic(self):
        half = K5.element(Fraction(1, 2), Fraction(1, 2))
        two = K5.element(2)
        assert half * two == K5.element(1, 1)
        assert two / two == K5.element(1)
        x = K5.element(3, -2)
        assert x / x == K5.element(1)
        assert x * x ** -1 == K5.element(1)

    def test_rational_division_of_two_ints_is_exact(self):
        q = QQ.divides_exact(2, 7)
        assert q == Fraction(7, 2) and type(q) is Fraction
        assert QQ.divides_exact(2, Fraction(1, 3)) == Fraction(1, 6)
        assert type(QQ.divides_exact(3, -6)) is Fraction
        with pytest.raises(ZeroDivisionError):
            QQ.divides_exact(0, 1)

    def test_division_of_ring_elements_lands_in_the_field(self):
        c = K5.divides_exact(w5(2), w5(1, 1))
        assert c == K5.element(Fraction(1, 2), Fraction(1, 2))
        assert c.dom is K5 and type(c.a) is Fraction

    def test_division_and_norm(self):
        a = K5.element(1, 1)
        b = K5.element(2)
        c = a / b
        assert c == K5.element(Fraction(1, 2), Fraction(1, 2))
        assert c.norm() == Fraction(3, 2)

    def test_to_and_from_field(self):
        x = w5(3, -4)
        y = hull_of(R5).coerce(x)
        assert R5.descend(y) == x
        assert R5.descend(K5.element(Fraction(1, 2))) is None

    def test_half_basis_descent(self):
        w = O15.element(0, 1)
        y = hull_of(O15).coerce(w)
        assert y == K15.element(Fraction(1, 2), Fraction(1, 2))
        assert O15.descend(y) == w
        # integral but with half coordinates in the field
        z = K15.element(Fraction(3, 2), Fraction(1, 2))
        assert O15.descend(z) == O15.element(1, 1)
        assert O15.descend(K15.element(Fraction(1, 2), 0)) is None

    def test_format(self):
        assert str(K5.element(Fraction(1, 2), Fraction(1, 2))) == "1/2+1/2*w"
        assert str(w5(-4, -2)) == "-4-2*w"
        assert str(w5(0, 1)) == "w"
        assert str(w5(0, -1)) == "-w"
        assert str(w5(0, 3)) == "3*w"
        assert str(w5(7)) == "7"


class TestUnits:
    def test_every_domain_answers_is_unit(self):
        t = Polynomial.identity(ZZ, "t")
        cases = [
            (ZZ, -1, True), (ZZ, 2, False), (QQ, Fraction(2, 3), True),
            (QQ, Fraction(0), False), (R5, w5(-1), True),
            (R5, w5(1, 1), False), (GAUSS, GAUSS.element(0, 1), True),
            (O3, O3.element(0, 1), True), (K5, K5.element(2, 1), True),
            (K5, K5.zero, False), (ZT, ZT.coerce(-1), True),
            (ZT, ZT.coerce(2), False), (ZT, ZT.coerce(t), False),
            (QT, QT.coerce(Fraction(2)), True), (QT, QT.zero, False),
            (QT, QT.coerce(t), False),
        ]
        for dom, x, expected in cases:
            assert dom.is_unit(x) is expected, (dom, x)

    def test_q_t_divides_by_a_unit_only(self):
        t = Polynomial.identity(QQ, "t")
        p = t * 4 + 2
        assert QT.divides_exact(QT.coerce(Fraction(2)), p) == t * 2 + 1
        with pytest.raises(ValueError, match="divides only by constants"):
            QT.divides_exact(t, p)
        # Z[t] divides by any nonzero constant, not only by its units
        assert ZT.divides_exact(ZT.coerce(-1), ZT.one) == ZT.coerce(-1)
        assert ZT.divides_exact(ZT.coerce(2), ZT.one) is None


def _tz(*coeffs):
    """An element of Z[t], coefficients low to high."""
    return ZT.element(coeffs)


#: Every kind of domain, with nonzero divisors x and dividends y.  The
#: polynomial domains divide only by constants, so their x are constants.
DIVISION_TABLE = {
    "Z": (ZZ, [1, -1, 2, 3, -6], [0, 6, -7, 12]),
    "Q": (QQ, [1, 2, Fraction(-2, 3)],
          [0, 3, Fraction(1, 3), Fraction(-5, 6)]),
    "Z[sqrt(-5)]": (R5, [1, 2, -3, w5(1, 1), w5(1, -1), w5(2)],
                    [R5.zero, w5(6), w5(1, 1), w5(-4, -2), w5(4, 6)]),
    "O(-15)": (O15, [2, O15.element(0, 1), O15.element(1, -1)],
               [O15.zero, O15.element(4), O15.element(6, -4),
                O15.element(6, -3), O15.element(5, 4)]),
    "Q(sqrt(-5))": (K5, [2, Fraction(1, 3), K5.element(1, 1), w5(1, 1)],
                    [K5.zero, K5.element(3, -2), w5(6), 5]),
    "Q(sqrt(-15))": (K15, [2, K15.element(Fraction(1, 2), Fraction(1, 2)),
                           O15.element(0, 1)],
                     [K15.element(1, 1), O15.element(6, -3), 4]),
    "Z[t]": (ZT, [1, 2, -3, _tz(2), _tz(-1)],
             [ZT.zero, _tz(4, 0, -6), _tz(4, 1, -6), _tz(3)]),
    "Q[t]": (QT, [2, Fraction(2, 3), QT.coerce(Fraction(-1, 2))],
             [QT.zero, QT.element([Fraction(1, 4), 0, 3]), _tz(6, 0, 20)]),
    "Z[t2,t3]": (ZT23, [1, 2, ZT23.coerce(3)],
                 [ZT23.zero, ZT23.coerce(_tz(4, 0, 6, 2)),
                  ZT23.coerce(_tz(3, 0, 0, 6))]),
}


def _coordinates(v):
    """The rational coordinates of a domain element."""
    if isinstance(v, Polynomial):
        return [c for co in v.coeffs for c in _coordinates(co)]
    if isinstance(v, QuadraticElement):
        return [v.a, v.b]
    return [v]


class TestOneExactDivision:
    """divides_exact(x, y) is y/x when that lies in the domain, else None."""

    @pytest.mark.parametrize("name", sorted(DIVISION_TABLE))
    def test_semantics(self, name):
        dom, divisors, dividends = DIVISION_TABLE[name]
        hull = hull_of(dom)
        for x in divisors:
            for y in dividends:
                q = dom.divides_exact(x, y)
                # the quotient in the hull, pulled back into the domain
                assert q == dom.descend(hull.divides_exact(x, y)), (x, y)
                if dom.tier == Tier.FIELD or (dom.tier >= Tier.QALGEBRA
                                              and isinstance(x, int)):
                    assert q is not None, (x, y)
                if q is not None:
                    assert dom.is_element(q), (x, y, q)
                    assert q * dom.coerce(x) == dom.coerce(y), (x, y)
        # an int 0 and the domain's zero name the domain alike
        for y in dividends:
            for zero in (0, dom.zero):
                with pytest.raises(ZeroDivisionError) as info:
                    dom.divides_exact(zero, y)
                assert str(info.value) == f"division by zero in {dom.name}"

    @pytest.mark.parametrize("name", sorted(DIVISION_TABLE))
    def test_the_old_division_names_are_gone(self, name):
        dom = DIVISION_TABLE[name][0]
        for old in ("div", "div_int", "div_int_exact", "from_integral"):
            assert not hasattr(dom, old), (name, old)

    def test_known_quotients(self):
        assert R5.divides_exact(w5(1, 1), w5(6)) == w5(1, -1)
        assert R5.divides_exact(2, w5(4, 6)) == w5(2, 3)
        assert R5.divides_exact(2, w5(4, 5)) is None
        assert O15.divides_exact(O15.element(0, 1), 4) == O15.element(1, -1)
        assert K15.divides_exact(2, O15.element(6, -3)) == \
            QuadraticElement(K15, Fraction(3), Fraction(-3, 2))
        assert ZT.divides_exact(_tz(-1), _tz(4, 1, -6)) == _tz(-4, -1, 6)
        assert ZT23.divides_exact(2, _tz(4, 0, 6, 2)) == _tz(2, 0, 3, 1)
        assert ZT23.divides_exact(2, _tz(3, 0, 0, 6)) is None
        assert QT.divides_exact(24, _tz(6, 0, 20)) == \
            QT.element([Fraction(1, 4), 0, Fraction(5, 6)])

    @pytest.mark.parametrize("d", [-1, -3, -5, -15])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_field_divides_two_order_elements(self, d, data):
        field, order = QuadraticField(d), QuadraticIntRing(d)
        coord = st.integers(-40, 40)
        x, y = (order.element(data.draw(coord), data.draw(coord))
                for _ in range(2))
        assume(x != order.zero)
        q = field.divides_exact(x, y)
        assert q == field.coerce(y) / field.coerce(x)
        assert q.dom is field
        assert type(q.a) is Fraction and type(q.b) is Fraction

    @pytest.mark.parametrize("d", [-1, -3, -5, -15])
    def test_a_zero_order_divisor_names_the_field(self, d):
        # y / x is the field's divides_exact(x, y), even for two order
        # elements
        field, order = QuadraticField(d), QuadraticIntRing(d)
        for x in (order.zero, field.zero, 0):
            for y in (order.element(3, 1), field.element(3, 1)):
                for divide in (field.divides_exact, lambda x, y: y / x):
                    with pytest.raises(ZeroDivisionError) as info:
                        divide(x, y)
                    assert str(info.value) == \
                        f"division by zero in Q(sqrt({d}))"

    @pytest.mark.parametrize("dom", [ZT, QT, ZT23], ids=repr)
    def test_polynomial_domains_refuse_a_non_constant_divisor(self, dom):
        x = dom.coerce(_tz(1, 0, 1))
        with pytest.raises(ValueError, match=re.escape(str(x))):
            dom.divides_exact(x, dom.one)

    @pytest.mark.parametrize("dom", [R5, O15, K5, K15], ids=repr)
    def test_quadratic_domains_refuse_a_bool_divisor(self, dom):
        with pytest.raises(TypeError):
            dom.divides_exact(True, dom.one)

    @pytest.mark.parametrize("dom", [ZZ, QQ], ids=repr)
    def test_z_and_q_refuse_a_bool_operand(self, dom):
        for x, y in ((True, 6), (2, False), (True, Fraction(6))):
            with pytest.raises(TypeError, match="^bool is not"):
                dom.divides_exact(x, y)

    def test_two_ints_over_q_give_a_fraction(self):
        q = QQ.divides_exact(2, 3)
        assert q == Fraction(3, 2) and type(q) is Fraction

    @pytest.mark.parametrize("dom", [QQ, K5, QT], ids=repr)
    def test_int_operands_never_give_a_float(self, dom):
        for x in (1, 2, -3, 7):
            for y in (0, 1, 3, -5):
                q = dom.divides_exact(x, y)
                assert q == dom.coerce(Fraction(y, x))
                assert all(type(c) is Fraction for c in _coordinates(q)), \
                    (x, y, q)


def parent_div_int_exact(ring, x, n):
    """QuadraticIntRing.div_int_exact(x, n), the int division that
    divides_exact(n, x) replaced."""
    qa, ra = divmod(x.a, n)
    qb, rb = divmod(x.b, n)
    return None if ra or rb else QuadraticElement(ring, qa, qb)


def parent_from_integral(field, x, s):
    """QuadraticField.from_integral(x, s), the map back that
    divides_exact(s, x) replaced."""
    return QuadraticElement(field, Fraction(x.a, s), Fraction(x.b, s))


quadratic_ds = st.sampled_from((-1, -3, -5, -15))
coordinates = st.integers(-60, 60)
nonzero_ints = st.integers(-12, 12).filter(bool)


class TestIntFastPaths:
    """The int divisor paths against the formulas they replaced, and
    against division by the same integer as a domain element."""

    @given(d=quadratic_ds, a=coordinates, b=coordinates, n=nonzero_ints)
    def test_order(self, d, a, b, n):
        ring = QuadraticIntRing(d)
        x = ring.element(a, b)
        got = ring.divides_exact(n, x)
        assert got == parent_div_int_exact(ring, x, n)
        assert got == ring.divides_exact(ring.element(n), x)
        if got is not None:
            assert got.dom is ring and (type(got.a), type(got.b)) == (int, int)

    @given(d=quadratic_ds, a=coordinates, b=coordinates, n=nonzero_ints)
    def test_field(self, d, a, b, n):
        field = QuadraticField(d)
        x = field.integral_ring.element(a, b)
        got = field.divides_exact(n, x)
        assert got == parent_from_integral(field, x, n)
        assert got == field.divides_exact(field.coerce(n), x)
        assert got.dom is field
        assert (type(got.a), type(got.b)) == (Fraction, Fraction)

    @given(cs=st.lists(coordinates, max_size=5), n=nonzero_ints)
    def test_polynomials(self, cs, n):
        p = ZT.element(cs)
        exact = [divmod(c, n) for c in p.coeffs]
        want = (None if any(r for _, r in exact)
                else ZT.element([q for q, _ in exact]))
        assert ZT.divides_exact(n, p) == want
        assert QT.divides_exact(n, p) == \
            QT.element([Fraction(c, n) for c in p.coeffs])


class TestEmbedDescend:
    def test_hulls(self):
        assert hull_of(ZZ) is QQ
        assert hull_of(R5) is K5
        assert hull_of(ZT) == QT
        assert hull_of(ZT).name == "Q[t]"
        assert hull_of(QQ) is QQ
        assert hull_of(QT) is QT

    def test_polynomial_hull_is_built_once(self):
        assert hull_of(ZT) is hull_of(ZT)
        assert hull_of(ZT).integral_ring is hull_of(ZT).integral_ring
        assert hull_of(ZT).name == "Q[t]"
        assert hull_of(ZT).integral_ring.name == "Z[t]"
        r5t = PolynomialDomain(R5, "t")
        assert hull_of(r5t) is r5t.q_algebra_hull()

    def test_polynomial_hull_follows_its_base(self):
        r5t = PolynomialDomain(R5, "t")
        hull = hull_of(r5t)
        assert hull.base is K5 and hull.var == "t"
        assert hull.name == "Q(sqrt(-5))[t]"
        assert hull.tier == Tier.QALGEBRA
        assert hull != QT and hull_of(hull) is hull
        p = r5t.element([w5(1, 1), w5(2)])
        assert hull.divides_exact(2, embed_element(p, r5t, hull)) \
            == hull.element([K5.element(Fraction(1, 2), Fraction(1, 2)),
                             K5.one])

    def test_embed_element(self):
        assert embed_element(3, ZZ, QQ) == Fraction(3)
        assert embed_element(w5(1, 2), R5, K5) == K5.element(1, 2)

    def test_descend_element(self):
        assert descend_element(Fraction(4), ZZ) == 4
        assert descend_element(Fraction(1, 2), ZZ) is None
        assert descend_element(K5.element(2, -3), R5) == w5(2, -3)
        assert descend_element(K5.element(Fraction(1, 2)), R5) is None

    def test_poly_roundtrip(self):
        p = Polynomial(ZZ, [1, -2, 3], "x")
        q = embed_poly(p, QQ)
        assert q.domain is QQ
        assert descend_poly(q, ZZ) == p
        assert descend_poly(Polynomial(QQ, [Fraction(1, 3)], "x"), ZZ) is None

    def test_each_domain_descends_its_own_elements(self):
        t = Polynomial(QQ, [0, Fraction(1, 2)], "t")
        cases = [
            (ZZ, Fraction(4), 4), (ZZ, Fraction(1, 2), None),
            (ZZ, K5.element(1), None),
            (QQ, Fraction(1, 2), Fraction(1, 2)), (QQ, K5.one, None),
            (R5, K5.element(2, -3), w5(2, -3)), (R5, 3, w5(3, 0)),
            (R5, Fraction(-6, 2), w5(-3, 0)), (R5, Fraction(1, 2), None),
            (R5, True, None), (R5, K15.one, None),
            (O15, K15.element(Fraction(3, 2), Fraction(1, 2)),
             O15.element(1, 1)),
            (O15, 7, O15.element(7, 0)), (O15, Fraction(5, 3), None),
            (K5, w5(1, 1), K5.element(1, 1)), (K5, K15.one, None),
            (ZT, t * 2, Polynomial(ZZ, [0, 1], "t")), (ZT, t, None),
            (ZT, Polynomial(QQ, [1], "s"), None), (QT, t, t),
        ]
        for dom, x, expected in cases:
            assert dom.descend(x) == expected, (dom, x)
            assert descend_element(x, dom) == expected

    def test_tpoly_descend(self):
        t2 = Polynomial(QQ, [0, 0, 1], "t")
        p = Polynomial(QT, [t2, QT.one], "x")
        q = descend_poly(p, ZT)
        assert q is not None and q.domain == ZT


class TestOneObjectPerRing:
    def test_polynomial_rings_are_built_once(self):
        assert ZT.q_algebra_hull() is QT
        assert QT.integral_ring is ZT
        assert QT.q_algebra_hull() is QT
        assert ZT23.q_algebra_hull() is QT
        assert ZT23 is not ZT
        assert PolynomialDomain(QQ, "t") is QT
        assert PolynomialDomain(ZZ, "s") is not ZT

    def test_name_and_tier_follow_the_base(self):
        assert (ZT.name, ZT.tier) == ("Z[t]", Tier.RING)
        assert (QT.name, QT.tier) == ("Q[t]", Tier.QALGEBRA)
        assert (ZT23.name, ZT23.tier) == ("Z[t2,t3]", Tier.RING)
        k5t = PolynomialDomain(K5, "t")
        assert (k5t.name, k5t.tier) == ("Q(sqrt(-5))[t]", Tier.QALGEBRA)
        assert PolynomialDomain(R5, "t").q_algebra_hull() is k5t

    def test_no_domain_class_defines_equality(self):
        for cls in (type(ZZ), type(QQ), QuadraticIntRing, QuadraticField,
                    PolynomialDomain, NoLinearTermRing):
            for klass in cls.__mro__[:-1]:
                assert "__eq__" not in vars(klass), klass
                assert "__hash__" not in vars(klass), klass

    def test_symbols(self):
        assert ZZ.symbols == {} and QQ.symbols == {}
        assert R5.symbols == {"w": (K5.element(0, 1), 4)}
        assert K5.symbols == {"w": (K5.element(0, 1), 4)}
        # w is the half-basis generator of O(-15), and sqrt(-15) in K15
        assert O15.symbols["w"] == (K15.element(Fraction(1, 2),
                                                Fraction(1, 2)), 5)
        assert K15.symbols["w"] == (K15.element(0, 1), 5)
        t = QT.element([0, 1])
        assert ZT.symbols == QT.symbols == ZT23.symbols == {"t": (t, 0)}
        assert ZT.symbols["t"][0].domain is QQ


#: One domain of every descriptor family, and a polynomial ring over each
#: kind of base.
EVERY_FAMILY = {
    "Z": ZZ, "Q": QQ, "Z[sqrt(-5)]": R5, "O(-15)": O15, "Z[i]": GAUSS,
    "Q(sqrt(-5))": K5, "Q(sqrt(-15))": K15, "Z[t]": ZT, "Q[t]": QT,
    "Z[t2,t3]": ZT23, "Z[sqrt(-5)][t]": PolynomialDomain(R5, "t"),
    "Q(sqrt(-5))[s]": PolynomialDomain(K5, "s"),
}


def _round_trips(x):
    """Copies of x, and x through pickle at every protocol."""
    return (copy.copy(x), copy.deepcopy(x),
            *(pickle.loads(pickle.dumps(x, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)))


class TestCopyAndPickle:
    """A copy or a pickle round trip, at any protocol, of a domain is the
    domain itself, so polynomials and answers over it survive both and
    compare equal."""

    @pytest.mark.parametrize("name", sorted(EVERY_FAMILY))
    def test_a_domain_round_trips_to_itself(self, name):
        dom = EVERY_FAMILY[name]
        state = dict(vars(dom))
        for back in _round_trips(dom):
            assert back is dom
        # and the one object keeps its own attributes, not copies of them
        assert all(vars(dom)[k] is v for k, v in state.items())

    @pytest.mark.parametrize("name", sorted(EVERY_FAMILY))
    def test_a_polynomial_round_trips_over_the_same_domain(self, name):
        dom = EVERY_FAMILY[name]
        p = Polynomial(dom, [dom.one, dom.zero, dom.one + dom.one], "x")
        for back in _round_trips(p):
            assert back == p
            assert back.domain is dom

    def test_answers_round_trip(self):
        x = Polynomial.identity(K5, "x")
        dec = decompose_over_field(
            compose(x * x + x.scale(K5.element(0, 1)), x * x * x), 3)
        p = Polynomial(QT, [QT.element([0, 1]), 0, 1], "x")
        qt_dec = Decomposition(p, p)
        # decomposable over Q(sqrt(-5)) only: field evidence and an
        # audited candidate list
        outcome = quartic_ring_decide(Polynomial(
            R5, [0, w5(1, 1), 11, w5(6, -6), w5(-4, -2)], "x"))
        assert outcome.field_evidence is not None and outcome.candidates
        for answer in (dec, qt_dec, outcome):
            for back in _round_trips(answer):
                assert back == answer
        assert pickle.loads(pickle.dumps(dec)).certificate == dec.certificate


class TestRationalCoerce:
    """QQ.coerce gives an exact Fraction for an int or a Fraction, and
    refuses everything else."""

    def test_an_int_becomes_a_fraction(self):
        y = QQ.coerce(3)
        assert type(y) is Fraction and y == 3

    def test_a_fraction_subclass_becomes_an_exact_fraction(self):
        class Tagged(Fraction):
            pass

        y = QQ.coerce(Tagged(3, 7))
        assert type(y) is Fraction and y == Fraction(3, 7)

    @pytest.mark.parametrize("v", [True, False, 1.5])
    def test_bool_and_float_are_refused(self, v):
        with pytest.raises(TypeError):
            QQ.coerce(v)


#: One element of each domain, built by the domain itself.
OWN_ELEMENTS = {
    "ZZ": (ZZ, 10 ** 30 + 7),
    "QQ": (QQ, Fraction(3, 7)),
    "Z[sqrt(-5)]": (R5, R5.element(2, -3)),
    "Q(sqrt(-5))": (K5, K5.element(Fraction(1, 2), 3)),
    "Q(sqrt(-15))": (K15, K15.element(Fraction(-2, 3), Fraction(5, 4))),
    "ZT": (ZT, ZT.element([1, -2, 3])),
    "QT": (QT, QT.element([Fraction(1, 2), 0, 3])),
    "ZT23": (ZT23, ZT23.element([4, 0, -1, 2])),
}


class TestCoerceKeepsItsOwnElements:
    """coerce hands back an element of its own domain as the same object,
    so a polynomial built from a domain's elements stores them as they
    are."""

    @pytest.mark.parametrize("name", sorted(OWN_ELEMENTS))
    def test_an_own_element_is_returned_as_is(self, name):
        dom, x = OWN_ELEMENTS[name]
        assert dom.is_element(x)
        assert dom.coerce(x) is x

    def test_a_rational_coefficient_is_stored_as_is(self):
        q = Fraction(-5, 12)
        assert Polynomial(QQ, [q]).coeffs[0] is q
        assert Polynomial(QQ, [1, q]).coeffs[1] is q

    @pytest.mark.parametrize("field", [K5, K15])
    def test_a_field_keeps_fraction_coordinates(self, field):
        q = Fraction(7, 9)
        x = field.coerce(q)
        assert x.a is q and type(x.b) is Fraction and x.b == 0

    def test_other_values_are_still_converted(self):
        class Tagged(Fraction):
            pass

        for v in (3, Tagged(3, 7)):
            x = K5.coerce(v)
            assert (type(x.a), type(x.b)) == (Fraction, Fraction)
            assert x == v
        x = K5.coerce(R5.element(2, -3))
        assert (x.dom, type(x.a), type(x.b)) == (K5, Fraction, Fraction)
        y = R5.coerce(K5.element(2, -3))
        assert (y.dom, type(y.a), type(y.b)) == (R5, int, int)
        assert ZZ.coerce(Fraction(6, 2)) == 3
        assert type(ZZ.coerce(Fraction(6, 2))) is int
        for dom in (ZZ, R5, K5):
            with pytest.raises(TypeError):
                dom.coerce(True)


#: Over Q, Q(sqrt(d)), O_d and Z[t2,t3], the one coefficient type each
#: allows.
EXACT_DOMAINS = {
    "QQ": QQ,
    "Q(sqrt(-1))": QuadraticField(-1),
    "Q(sqrt(-5))": K5,
    "Q(sqrt(-15))": K15,
    "Z[sqrt(-1)]": GAUSS,
    "Z[sqrt(-5)]": R5,
    "O(-15)": O15,
    "Z[t2,t3]": ZT23,
}


def _is_exact(dom, c):
    """Whether c is an element of dom with exactly its coefficient type:
    a Fraction over Q, Fraction coordinates over Q(sqrt(d)), int
    coordinates over O_d, int coefficients and no t^1 term over
    Z[t2,t3]."""
    if dom is QQ:
        return type(c) is Fraction
    if dom is ZT23:
        return ZT23.is_element(c) and all(type(k) is int for k in c.coeffs)
    coord = Fraction if dom.tier is Tier.FIELD else int
    return (type(c) is QuadraticElement and c.dom is dom
            and type(c.a) is coord and type(c.b) is coord)


def _inputs(dom):
    """Values a polynomial over dom accepts as coefficients: ints,
    Fractions, a Fraction subclass, and for the quadratic domains
    elements of the order and the field on the same d."""
    class Tagged(Fraction):
        pass

    ints = st.integers(-30, 30)
    if dom is ZT23:
        # integer polynomials in t with no t^1 term: a polynomial over Q
        # is no operand of + - * here, as it is no element
        return ints | st.lists(ints, max_size=4).map(
            lambda cs: Polynomial(ZZ, [c if i != 1 else 0
                                       for i, c in enumerate(cs)], "t"))
    if dom is QQ:
        rationals = st.fractions(max_denominator=12)
        return ints | rationals | rationals.map(Tagged)
    ring, field = QuadraticIntRing(dom.d), QuadraticField(dom.d)
    ring_elements = st.builds(ring.element, ints, ints)
    if dom is ring:
        # field elements with integer coordinates descend into the order
        return ints | ring_elements | ring_elements.map(field.coerce)
    rationals = st.fractions(max_denominator=6)
    return (ints | rationals | rationals.map(Tagged) | ring_elements
            | st.builds(field.element, rationals, rationals))


class TestExactCoefficientTypes:
    """Whatever a polynomial is built from, its coefficients over Q,
    Q(sqrt(d)) and O_d have exactly the domain's type: no int among the
    rationals, no Fraction subclass, no int coordinate in the field."""

    @pytest.mark.parametrize("name", sorted(EXACT_DOMAINS))
    def test_after_construction_and_arithmetic(self, name):
        dom = EXACT_DOMAINS[name]
        values = _inputs(dom)
        coeff_lists = st.lists(values, max_size=4)

        @settings(max_examples=40, deadline=None)
        @given(coeff_lists, coeff_lists, values, values,
               st.integers(0, 3))
        def check(cs, ds, u, v, k):
            p, q = Polynomial(dom, cs), Polynomial(dom, ds)
            polys = [p, q, Polynomial.constant(dom, u),
                     Polynomial.monomial(dom, v, k),
                     Polynomial.identity(dom), p + q, p - q, p * q,
                     p + u, k - p, p * v, k * p, p.scale(u), compose(p, q),
                     p.map_coefficients(lambda c: 1 if c == 0 else c)]
            for poly in polys:
                assert all(_is_exact(dom, c) for c in poly.coeffs), poly
            for x in (u, v, *p.coeffs):
                # a polynomial domain divides only by constants
                if x == 0 or getattr(x, "degree", 0) > 0:
                    continue
                for y in (u, v, *q.coeffs):
                    quotient = dom.divides_exact(x, y)
                    assert quotient is None or _is_exact(dom, quotient)

        check()


class TestSubringDescriptors:
    """The subrings the --ring descriptors name inside their hulls: Z in Q,
    O_d in Q(sqrt(d)) and, above all, Z[t2,t3] in Q[t]."""

    def test_z_in_q(self):
        assert ZZ.descend(Fraction(4, 2)) == 2
        assert ZZ.descend(Fraction(1, 2)) is None
        assert ZZ.descend(Fraction(3)) == 3

    def test_the_domain(self):
        assert (ZT23.name, ZT23.tier, ZT23.base, ZT23.var) \
            == ("Z[t2,t3]", Tier.RING, ZZ, "t")
        assert hull_of(ZT23) == QT and hull_of(ZT23).name == "Q[t]"
        assert hull_of(ZT23).integral_ring == ZT

    def test_compares_unequal_to_z_t_both_ways(self):
        assert ZT23 != ZT and ZT != ZT23
        assert not ZT23 == ZT and not ZT == ZT23
        assert ZT23 is NoLinearTermRing() and hash(ZT23) == hash(
            NoLinearTermRing())
        assert ZT is PolynomialDomain(ZZ, "t")
        assert len({ZT, ZT23, NoLinearTermRing()}) == 2
        f = Polynomial(ZT, [0, 0, 1], "x")
        assert f != Polynomial(ZT23, [0, 0, 1], "x")

    def test_element_refuses_a_linear_term(self):
        with pytest.raises(TypeError, match=r"is not in Z\[t2,t3\]"):
            ZT23.element([0, 1])
        t = Polynomial.identity(ZZ, "t")
        assert ZT23.element([1, 0, 1]) == t ** 2 + 1
        assert ZT23.is_element(ZT23.element([1, 0, 1]))

    def test_no_linear_term_subring(self):
        t = Polynomial.identity(ZZ, "t")
        for p, member in ((t ** 2 + 5, True), (t ** 3 - t ** 2, True),
                          (t, False), (t ** 3 + 2 * t, False)):
            assert ZT23.is_element(p) is member
            assert (ZT23.descend(embed_element(p, ZT, QT)) == p) is member
        assert ZT.is_element(t)

    def test_coerce_refuses_a_linear_term(self):
        t = Polynomial.identity(ZZ, "t")
        assert ZT23.coerce(t ** 2) == t ** 2
        assert ZT23.coerce(3) == Polynomial(ZZ, [3], "t")
        with pytest.raises(TypeError, match="the coefficient of t\\^1 is "
                                            "nonzero"):
            ZT23.coerce(t ** 3 + t)
        with pytest.raises(TypeError):
            Polynomial(ZT23, [t, 1], "x")

    def test_subring_is_multiplicatively_closed(self):
        rng = random.Random(29)
        for _ in range(300):
            a = [rng.randint(-4, 4) for _ in range(5)]
            b = [rng.randint(-4, 4) for _ in range(5)]
            a[1] = b[1] = 0
            p = Polynomial(ZZ, a, "t")
            q = Polynomial(ZZ, b, "t")
            assert ZT23.is_element(p * q)
            assert ZT23.is_element(p + q)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), max_size=5), max_size=4),
           st.lists(st.lists(st.integers(-5, 5), max_size=5), max_size=4),
           st.lists(st.integers(-5, 5), max_size=5))
    def test_polynomials_over_it_stay_in_it(self, cs, ds, scalar):
        # their arithmetic is not re-coerced, so closure is what keeps a
        # t^1 term out of every coefficient
        def element(coeffs):
            return ZT23.element([c if i != 1 else 0
                                 for i, c in enumerate(coeffs)])

        p = Polynomial(ZT23, [element(c) for c in cs])
        q = Polynomial(ZT23, [element(c) for c in ds])
        s = element(scalar)
        for r in (p + q, p - q, -p, p * q, p.scale(s), p + s, p - s,
                  p * s):
            assert r.domain is ZT23
            assert all(ZT23.is_element(c) for c in r.coeffs), r
            assert not r.coeffs or r.coeffs[-1] != 0, r

    def test_rational_span_meets_integers_exactly_in_subring(self):
        # (Q.S) intersect Z[t] = S for S = Z[t2,t3]: p in Z[t] lies in the
        # rational span when n*p lies in S for an integer n > 0
        rng = random.Random(31)
        for _ in range(1000):
            coeffs = [rng.randint(-8, 8) for _ in range(rng.randint(0, 7))]
            p = Polynomial(ZZ, coeffs, "t")
            in_span = ZT23.is_element(p * rng.randint(1, 9))
            in_subring = ZT23.descend(embed_element(p, ZT, QT)) is not None
            assert in_span == in_subring == ZT23.is_element(p)

    def test_order_in_field_descriptor(self):
        assert O15.descend(K15.element(Fraction(1, 2), Fraction(1, 2))) \
            is not None
        assert O15.descend(K15.element(3, -2)) is not None
        assert O15.descend(K15.element(Fraction(1, 2), 0)) is None

    def test_qzt23_descriptor(self):
        # Q.S in Q[t] is the rational polynomials with no t^1 term: q lies
        # in it when q times its denominator descends into S
        t = Polynomial.identity(QQ, "t")
        for q, member in ((t ** 2 * Fraction(1, 2), True),
                          (t * Fraction(1, 3), False)):
            assert (ZT23.descend(q * QT.denominator(q)) is not None) is member


class TestCapLimits:
    def test_divisor_bound_is_enforced(self):
        big = w5(2 ** 30)                  # norm 2^60 > the bound 10^15
        with pytest.raises(ValueError, match="norm 1152921504606846976 > "
                                             "1000000000000000$"):
            R5.divisors_up_to_associates(big)
        with pytest.raises(ValueError, match="> 1000000000000000$"):
            R5.is_irreducible(big)
        # over Z the bound is where factoring stops being exact
        with pytest.raises(ValueError, match=f">= {_MR_EXACT_BELOW}, below "
                                             "which factoring is exact$"):
            ZZ.divisors_up_to_associates(-_MR_EXACT_BELOW)

    def test_divisors_of_zero_rejected(self):
        with pytest.raises(ValueError):
            R5.divisors_up_to_associates(w5(0))
        with pytest.raises(ValueError):
            ZZ.divisors_up_to_associates(0)


# -- the rendering helpers against their earlier forms ----------------------

def _old_decimal(x):
    """_decimal before its int fast path."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _old_decimal(x.numerator)
        return f"{_old_decimal(x.numerator)}/{_old_decimal(x.denominator)}"
    if x < 0:
        return "-" + _old_decimal(-x)
    if x.bit_length() <= 4096:
        return str(x)
    k = x.bit_length() * 3 // 20
    high, low = divmod(x, 10 ** k)
    return _old_decimal(high) + _old_decimal(low).zfill(k)


def _old_format_two_coords(first, second):
    """_format_two_coords as it was, on _old_decimal."""
    if second == 0:
        return _old_decimal(first)
    wpart = {1: "w", -1: "-w"}.get(second) or f"{_old_decimal(second)}*w"
    if first == 0:
        return wpart
    return (_old_decimal(first) + ("" if wpart.startswith("-") else "+")
            + wpart)


#: The ints at and around the split at 4096 bits.
_SPLIT_INTS = (2 ** 4096 - 1, 2 ** 4096, 2 ** 4095, 2 ** 5000, 10 ** 1300,
               10 ** 1233, 10 ** 1234 - 1)

#: Ints of every size up to 5000 bits, below and above the split.
_ANY_SIZE_INTS = st.one_of(
    st.integers(-10, 10), st.sampled_from(_SPLIT_INTS + tuple(
        -n for n in _SPLIT_INTS)),
    st.integers(0, 5000).flatmap(
        lambda k: st.integers(-(2 ** k), 2 ** k)))

_ANY_SIZE_FRACTIONS = st.builds(
    Fraction, _ANY_SIZE_INTS,
    _ANY_SIZE_INTS.map(abs).filter(bool))

_SMALL_COORDS = st.one_of(
    st.sampled_from((0, 1, -1, 2, Fraction(1), Fraction(-1), Fraction(1, 2),
                     Fraction(-1, 2))),
    st.integers(-50, 50), st.fractions(max_denominator=12))


class TestRenderingAgainstOldForms:
    """The rendering fast paths give what the helpers they replaced gave."""

    @settings(max_examples=300, deadline=None)
    @given(x=st.one_of(_ANY_SIZE_INTS, _ANY_SIZE_FRACTIONS))
    def test_decimal(self, x):
        assert _decimal(x) == _old_decimal(x)

    @pytest.mark.parametrize("x", [
        2 ** 5000, -2 ** 5000, 10 ** 1300, -10 ** 1300, 2 ** 4096,
        2 ** 4096 - 1, Fraction(10 ** 1300, 3), Fraction(-1, 2 ** 5000),
        Fraction(2 ** 5000), 0, -1, True, False])
    def test_decimal_at_the_split(self, x):
        assert _decimal(x) == _old_decimal(x)

    @pytest.mark.parametrize("d", [-1, -2, -3, -5, -6, -7, -15])
    @settings(max_examples=60, deadline=None)
    @given(a=st.one_of(st.fractions(), _ANY_SIZE_FRACTIONS),
           b=st.one_of(st.fractions(), _ANY_SIZE_FRACTIONS))
    def test_display_coords(self, d, a, b):
        K = QuadraticField(d)
        x = QuadraticElement(K, a, b)
        expected = (x.a + x.b / 2, x.b / 2) if K.half_basis else (x.a, x.b)
        got = K.display_coords(x)
        assert got == expected
        assert [type(c) for c in got] == [Fraction, Fraction]

    @settings(max_examples=300, deadline=None)
    @given(first=st.one_of(_SMALL_COORDS, _ANY_SIZE_INTS),
           second=st.one_of(_SMALL_COORDS, _ANY_SIZE_FRACTIONS))
    def test_format_two_coords(self, first, second):
        assert _format_two_coords(first, second) == \
            _old_format_two_coords(first, second)

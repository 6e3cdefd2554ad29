"""Decomposition algorithms: recursion, h-adic test, quartics, uniqueness."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polydecomp import (CapabilityError, Decomposition, Polynomial,
                        QuadraticField, QuadraticIntRing, RingDecideStatus,
                        QQ, QT, ZT, ZT23, ZZ, compose,
                        decompose_fully, decompose_over_field,
                        decompose_over_ring, descend_poly, divrem_monic,
                        embed_poly, hadic_digits, hull_of, linear_relate,
                        monic_decompose, proper_inner_degrees,
                        quartic_field_decompose, quartic_ring_decide,
                        verify_taylor_expansion)
from polydecomp import decomp
from polydecomp.poly import _divrem_monic_in_place

R5 = QuadraticIntRing(-5)
K5 = QuadraticField(-5)


def qpoly(coeffs):
    return Polynomial(QQ, [Fraction(c) for c in coeffs], "x")


def zpoly(coeffs):
    return Polynomial(ZZ, coeffs, "x")


monic_coeffs = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    min_size=2, max_size=4).map(lambda c: c + [Fraction(1)])


class TestProperInnerDegrees:
    def test_values(self):
        assert proper_inner_degrees(4) == [2]
        assert proper_inner_degrees(6) == [2, 3]
        assert proper_inner_degrees(8) == [2, 4]
        assert proper_inner_degrees(12) == [2, 3, 4, 6]
        assert proper_inner_degrees(7) == []
        assert proper_inner_degrees(2) == []


class TestDecompositionObject:
    def test_certificate(self):
        d = Decomposition(qpoly([0, 2, 1]), qpoly([0, 0, 1]))
        assert d.certificate == qpoly([0, 0, 2, 0, 1])
        g, h = d
        assert g == qpoly([0, 2, 1]) and h == qpoly([0, 0, 1])

    def test_is_frozen(self):
        d = Decomposition(qpoly([0, 2, 1]), qpoly([0, 0, 1]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.g = qpoly([0, 0, 1])
        assert d.g == qpoly([0, 2, 1])

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            Decomposition(qpoly([0, 1]), qpoly([0, 0, 1]))
        with pytest.raises(ValueError):
            Decomposition(qpoly([0, 0, 1]), qpoly([3]))


class TestZeroPolynomial:
    """The zero polynomial has degree MINUS_INFINITY, below every guard."""

    @pytest.mark.parametrize("call", [
        lambda zero: Decomposition(zero, qpoly([0, 0, 1])),
        lambda zero: Decomposition(qpoly([0, 0, 1]), zero),
        lambda zero: monic_decompose(zero, 2),
        lambda zero: decompose_over_field(zero, 2),
        lambda zero: decompose_fully(zero),
        lambda zero: divrem_monic(qpoly([0, 0, 1]), zero),
        lambda zero: linear_relate(zero, zero),
    ], ids=["outer", "inner", "monic_decompose", "decompose_over_field",
            "decompose_fully", "divrem_monic", "linear_relate"])
    def test_every_degree_guard_rejects_zero(self, call):
        with pytest.raises(ValueError, match="degree"):
            call(qpoly([]))


class TestMonicDecompose:
    def test_textbook_quartic(self):
        f = qpoly([0, 0, 2, 0, 1])               # x^4 + 2x^2
        dec = monic_decompose(f, 2)
        assert dec is not None
        assert dec.g == qpoly([0, 2, 1])          # x^2 + 2x
        assert dec.h == qpoly([0, 0, 1])          # x^2

    def test_shifted_inner(self):
        f = qpoly([0, 1, 2, 2, 1])                # x^4 + 2x^3 + 2x^2 + x
        dec = monic_decompose(f, 2)
        assert dec is not None
        assert dec.g == qpoly([0, 1, 1])
        assert dec.h == qpoly([0, 1, 1])          # x^2 + x

    def test_indecomposable(self):
        assert monic_decompose(qpoly([0, 1, 0, 0, 1]), 2) is None

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            monic_decompose(qpoly([0, 0, 2, 0, 1]), 3)   # 3 does not divide 4
        with pytest.raises(ValueError):
            monic_decompose(qpoly([0, 1, 1]), 2)         # degree below 4
        with pytest.raises(ValueError):
            monic_decompose(qpoly([0, 0, 0, 0, 2]), 2)   # not monic
        # a ring is no bad input: the pair is found over Z itself
        dec = monic_decompose(zpoly([0, 0, 2, 0, 1]), 2)
        assert dec == Decomposition(zpoly([0, 2, 1]), zpoly([0, 0, 1]))
        assert dec.g.domain is ZZ and dec.h.domain is ZZ

    def test_works_over_rational_t_polys(self):
        t = Polynomial.identity(QQ, "t")
        h = Polynomial(QT, [QT.zero, QT.coerce(t), QT.one], "x")
        g = Polynomial(QT, [QT.coerce(t ** 3), QT.zero, QT.one], "x")
        f = compose(g, h)
        dec = monic_decompose(f, 2)
        assert dec is not None
        assert dec.g == g and dec.h == h

    @given(monic_coeffs, monic_coeffs)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_recovers_normalized_pair(self, gc, hc):
        g = qpoly(gc)
        h = qpoly(hc)
        f = compose(g, h)
        dec = monic_decompose(f, h.degree)
        assert dec is not None
        h0 = h.constant_term
        assert dec.h == h - h0
        assert dec.g == compose(g, qpoly([h0, 1]))
        assert dec.certificate == f

    def test_same_inner_factor_for_different_outers(self):
        # the normalized inner factor depends only on h, not on g
        h = qpoly([0, 5, 0, 1])
        d1 = monic_decompose(compose(qpoly([0, 3, 1]), h), 3)
        d2 = monic_decompose(compose(qpoly([2, -7, 1]), h), 3)
        assert d1 is not None and d2 is not None
        assert d1.h == h and d2.h == h
        assert d1.g != d2.g


def reference_monic_decompose(f, m):
    """The inner factor by repeated full powers, with a full digit expansion.

    The coefficient of x^(N-k) in h^n is n*h_{m-k} plus terms in the
    higher coefficients of h, so each unknown is solved after recomputing
    the partial h^n.  Slow, but independent of the power-series root.
    """
    dom = f.domain
    N = f.degree
    n = N // m
    hc = [dom.zero] * m + [dom.one]
    for k in range(1, m):
        partial = Polynomial(dom, hc, f.var) ** n
        delta = f.coefficient(N - k) - partial.coefficient(N - k)
        hc[m - k] = dom.divides_exact(n, delta)
    h = Polynomial(dom, hc, f.var)
    digits = hadic_digits(f, h)
    if any(not d.is_constant() for d in digits):
        return None
    return Decomposition(
        Polynomial(dom, [d.constant_term for d in digits], f.var), h)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=4)
DOMAIN_ELEMENTS = {
    "Q": (QQ, small_fractions),
    "Q(sqrt(-5))": (K5, st.builds(K5.element, small_fractions,
                                  small_fractions)),
    "Q[t]": (QT, st.lists(st.integers(-3, 3), max_size=3).map(QT.element)),
}


@st.composite
def monic_composition(draw, domain):
    """(g, h) with g, h monic of degree 2..4 over the named domain."""
    dom, element = DOMAIN_ELEMENTS[domain]

    def monic():
        deg = draw(st.integers(2, 4))
        return Polynomial(dom, [draw(element) for _ in range(deg)]
                          + [dom.one], "x")

    return monic(), monic()


class TestInnerFactorByRoot:
    """The power-series root against the repeated-power recursion."""

    @pytest.mark.parametrize("domain", sorted(DOMAIN_ELEMENTS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_same_pair_as_the_power_recursion(self, domain, data):
        g, h = data.draw(monic_composition(domain))
        f = compose(g, h)
        dec = monic_decompose(f, h.degree)
        assert dec is not None
        assert dec == reference_monic_decompose(f, h.degree)
        assert dec.h == h - h.constant_term
        assert compose(dec.g, dec.h) == f

    @pytest.mark.parametrize("domain", sorted(DOMAIN_ELEMENTS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_both_reject_a_perturbed_composition(self, domain, data):
        # adding c*x leaves the top coefficients, hence the candidate h,
        # alone; (G - g)(h) = c*x is impossible with deg h >= 2
        dom, element = DOMAIN_ELEMENTS[domain]
        g, h = data.draw(monic_composition(domain))
        c = data.draw(element.filter(lambda c: c != dom.zero))
        f = compose(g, h) + Polynomial(dom, [dom.zero, c], "x")
        assert monic_decompose(f, h.degree) is None
        assert reference_monic_decompose(f, h.degree) is None

    @pytest.mark.parametrize("domain", sorted(DOMAIN_ELEMENTS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_on_random_monic_input(self, domain, data):
        dom, element = DOMAIN_ELEMENTS[domain]
        N = data.draw(st.sampled_from([4, 6, 8, 9, 12]))
        m = data.draw(st.sampled_from(proper_inner_degrees(N)))
        f = Polynomial(dom, [data.draw(element) for _ in range(N)]
                       + [dom.one], "x")
        dec = monic_decompose(f, m)
        assert dec == reference_monic_decompose(f, m)
        if dec is not None:
            assert compose(dec.g, dec.h) == f

    def test_sparse_and_wide_inputs(self):
        x = qpoly([0, 1])
        for g, h in ((x ** 5 + 1, x ** 7 - x),
                     (x ** 2 - 3 * x, x ** 12 + (x ** 11).scale(Fraction(1, 7))),
                     (x ** 12 + x, x ** 2 + qpoly([0, Fraction(1, 3)]))):
            f = compose(g, h)
            dec = monic_decompose(f, h.degree)
            assert dec == reference_monic_decompose(f, h.degree)
            assert dec == Decomposition(g, h)
            assert compose(dec.g, dec.h) == f


#: Denominators up to 10^6; the large primes make the lcm of a few of
#: them, hence the integer lift, large.
wide_denominators = st.one_of(
    st.integers(1, 10 ** 6),
    st.sampled_from([1, 2, 3, 7, 999_983, 999_979, 999_961, 10 ** 6]))
wide_fractions = st.builds(Fraction, st.integers(-9, 9), wide_denominators)


@st.composite
def wide_composition(draw, lead=1):
    """(g, h) over Q with wide denominators, g of lead ``lead``, h monic."""
    def poly(lc):
        deg = draw(st.integers(2, 4))
        return qpoly([draw(wide_fractions) for _ in range(deg)] + [lc])

    return poly(lead), poly(1)


class TestIntegerPath:
    """Over Q the root and the digits run on the integer lift of f."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_compositions_match_the_reference(self, data):
        g, h = data.draw(wide_composition())
        f = compose(g, h)
        dec = monic_decompose(f, h.degree)
        assert dec is not None
        assert dec == reference_monic_decompose(f, h.degree)
        assert dec.h == h - h.constant_term
        assert compose(dec.g, dec.h) == f

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_perturbed_compositions_are_rejected(self, data):
        g, h = data.draw(wide_composition())
        c = data.draw(wide_fractions.filter(lambda c: c != 0))
        f = compose(g, h) + qpoly([0, c])
        assert monic_decompose(f, h.degree) is None
        assert reference_monic_decompose(f, h.degree) is None

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_monic_input_matches_the_reference(self, data):
        N = data.draw(st.sampled_from([4, 6, 8, 9, 12]))
        m = data.draw(st.sampled_from(proper_inner_degrees(N)))
        f = qpoly([data.draw(wide_fractions) for _ in range(N)] + [1])
        dec = monic_decompose(f, m)
        assert dec == reference_monic_decompose(f, m)
        if dec is not None:
            assert compose(dec.g, dec.h) == f

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_non_monic_input_through_the_field_path(self, data):
        lead = data.draw(wide_fractions.filter(lambda c: c != 0))
        g, h = data.draw(wide_composition(lead))
        f = compose(g, h)
        dec = decompose_over_field(f, h.degree)
        assert dec is not None
        assert dec.h == h - h.constant_term
        assert compose(dec.g, dec.h) == f
        c = data.draw(wide_fractions.filter(lambda c: c != 0))
        assert decompose_over_field(f + qpoly([0, c]), h.degree) is None

    def test_a_non_integral_root_rejects_at_once(self, monkeypatch):
        # x^6 + x^5 is its own integer lift, and the first root
        # coefficient over m = 3 is 1/2: one division decides
        calls = []
        divides_exact = type(ZZ).divides_exact

        def counted(self, a, b):
            calls.append((a, b))
            return divides_exact(self, a, b)

        # on the class: undoing a patch of the instance would leave a bound
        # method on ZZ that hides later patches of the class
        monkeypatch.setattr(type(ZZ), "divides_exact", counted)
        assert monic_decompose(qpoly([0, 0, 0, 0, 0, 1, 1]), 3) is None
        assert calls == [(2, 1)]

    def test_exact_division(self):
        assert ZZ.divides_exact(4, 12) == 3
        assert ZZ.divides_exact(4, -12) == -3
        assert ZZ.divides_exact(7, 0) == 0
        assert ZZ.divides_exact(2, 7) is None
        assert ZZ.divides_exact(2, -7) is None

    def test_large_scale_maps_back_exactly(self):
        # the scale is 999983 * 999979 * 999961 and F's x coefficient has
        # 133 digits, yet the pair comes back in lowest terms; the 7 of
        # f(0) = g(0) stays out of the scale
        g = qpoly([Fraction(1, 7), Fraction(-2, 999_979),
                   Fraction(1, 999_983), 1])
        h = qpoly([0, Fraction(5, 999_961), 0, 1])
        f = compose(g, h)
        assert decomp._integral_scale(f) == 999_983 * 999_979 * 999_961
        dec = monic_decompose(f, 3)
        assert dec == Decomposition(g, h)
        assert dec == reference_monic_decompose(f, 3)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_scale_clears_every_denominator(self, data):
        # every coefficient but the lead and f(0), which is g(0)
        N = data.draw(st.integers(4, 12))
        f = qpoly([data.draw(wide_fractions) for _ in range(N)] + [1])
        lam = decomp._integral_scale(f)
        assert lam >= 1
        assert all((lam ** (N - k) * f.coeffs[k]).denominator == 1
                   for k in range(1, N))
        assert math.lcm(*(f.coeffs[k].denominator
                          for k in range(1, N))) % lam == 0

    def test_a_denominator_only_in_the_constant_term_stays_out(self):
        # f = (y^2 + 3y + 1/999983) o (x^2 + x): f(0) is g(0), so the
        # integer lift of f needs no scale at all
        g = qpoly([Fraction(1, 999_983), 3, 1])
        h = qpoly([0, 1, 1])
        f = compose(g, h)
        assert f.coeffs[1:] == qpoly([0, 3, 4, 2, 1]).coeffs[1:]
        assert decomp._integral_scale(f) == 1
        assert monic_decompose(f, 2) == Decomposition(g, h)
        assert decompose_over_field(f.scale(Fraction(2, 3)), 2) == \
            Decomposition(g.scale(Fraction(2, 3)), h)
        assert monic_decompose(f + qpoly([0, 1]), 2) is None

    def test_the_scale_stays_below_the_lcm(self):
        # f = x^4 + 2/3 x^3 + 4/9 x^2 + 1/9 x: the 3 that f_3 needs
        # covers the 9s below it, so the scale is 3 and not the lcm 9
        g = qpoly([0, Fraction(1, 3), 1])
        h = qpoly([0, Fraction(1, 3), 1])
        f = compose(g, h)
        assert decomp._integral_scale(f) == 3
        assert monic_decompose(f, 2) == Decomposition(g, h)


def exact_monic_decompose(f, m):
    """monic_decompose as it ran over Q(sqrt(d)) and Q[t] before the
    integral lift: the root and the digits in the Q-algebra itself, with
    its own division by integers, and no early rejection."""
    dom = f.domain
    H = decomp._inner_root(list(f.coeffs), m, dom)
    G = []
    rem = list(f.coeffs)
    while rem:
        _divrem_monic_in_place(rem, H, dom.zero)
        if any(c != dom.zero for c in rem[1:m]):
            return None
        G.append(rem[0])
        rem = rem[m:]
    return Decomposition(Polynomial(dom, G, f.var), Polynomial(dom, H, f.var))


#: Coefficients with denominators, so that the scale lam exceeds 1.
_lift_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
LIFT_ELEMENTS = {
    **{f"Q(sqrt({d}))": (QuadraticField(d), st.builds(
        QuadraticField(d).element, _lift_fractions, _lift_fractions))
       for d in (-1, -3, -5, -15)},
    "Q[t]": (QT, st.lists(_lift_fractions, max_size=3).map(QT.element)),
}


def _monic(draw, dom, element, deg):
    return Polynomial(dom, [draw(element) for _ in range(deg)] + [dom.one],
                      "x")


class TestIntegralLift:
    """Over Q(sqrt(d)) and Q[t] the root and the digits run on O_d and
    Z[t]; the answers are those of the exact path in the Q-algebra."""

    @pytest.mark.parametrize("domain", sorted(LIFT_ELEMENTS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_compositions_match_the_exact_path(self, domain, data):
        dom, element = LIFT_ELEMENTS[domain]
        g = _monic(data.draw, dom, element, data.draw(st.integers(2, 3)))
        h = _monic(data.draw, dom, element, data.draw(st.integers(2, 3)))
        f = compose(g, h)
        dec = monic_decompose(f, h.degree)
        assert dec is not None
        assert dec == exact_monic_decompose(f, h.degree)
        assert dec.h == h - h.constant_term
        assert compose(dec.g, dec.h) == f

    @pytest.mark.parametrize("domain", sorted(LIFT_ELEMENTS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_perturbed_compositions_match_the_exact_path(self, domain, data):
        # g(h) + c*x^k: every inner degree, hit or miss, agrees
        dom, element = LIFT_ELEMENTS[domain]
        g = _monic(data.draw, dom, element, data.draw(st.integers(2, 3)))
        h = _monic(data.draw, dom, element, data.draw(st.integers(2, 3)))
        f = compose(g, h)
        k = data.draw(st.integers(1, f.degree - 1))
        c = data.draw(element.filter(lambda c: c != dom.zero))
        f = f + Polynomial.monomial(dom, c, k, "x")
        for m in proper_inner_degrees(f.degree):
            assert monic_decompose(f, m) == exact_monic_decompose(f, m)

    @pytest.mark.parametrize("domain", sorted(LIFT_ELEMENTS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_monic_input_matches_the_exact_path(self, domain, data):
        dom, element = LIFT_ELEMENTS[domain]
        N = data.draw(st.sampled_from([4, 6, 8, 9]))
        f = _monic(data.draw, dom, element, N)
        for m in proper_inner_degrees(N):
            assert monic_decompose(f, m) == exact_monic_decompose(f, m)

    def test_scale_above_one_maps_back_exactly(self):
        t = QT.element([0, 1])
        for dom, c in ((QuadraticField(-15), QuadraticField(-15).element(
                Fraction(1, 3), Fraction(1, 2))),
                       (QT, QT.element([Fraction(1, 2), 0, Fraction(2, 3)]))):
            x = Polynomial.identity(dom, "x")
            g = x ** 3 + x.scale(c)
            h = x ** 2 + x.scale(c * c)
            if dom is QT:
                h = h + x.scale(t)
            f = compose(g, h)
            assert decomp._integral_scale(f) > 1
            assert monic_decompose(f, 2) == Decomposition(g, h)

    @pytest.mark.parametrize("domain", sorted(LIFT_ELEMENTS))
    def test_a_root_coefficient_outside_the_ring_rejects_at_once(
            self, domain, monkeypatch):
        # over m = 3, the first root coefficient of x^6 + a*x^5 is a/2,
        # which is not integral for a = w or t: the digits never run
        dom, _ = LIFT_ELEMENTS[domain]
        a = dom.element([0, 1]) if dom is QT else dom.coerce(
            dom.integral_ring.element(0, 1))
        f = Polynomial(dom, [0, 0, 0, 0, 0, a, 1], "x")

        def no_digits(*args):
            raise AssertionError("a digit was taken after a rejected root")

        monkeypatch.setattr(decomp, "_divrem_monic_in_place", no_digits)
        assert monic_decompose(f, 3) is None

    def test_exact_division_in_the_integral_rings(self):
        O15 = QuadraticIntRing(-15)
        assert O15.divides_exact(2, O15.element(6, -4)) == O15.element(3, -2)
        assert O15.divides_exact(2, O15.element(6, -3)) is None
        assert O15.divides_exact(2, O15.element(5, 4)) is None
        Zt = QT.integral_ring
        assert Zt == ZT
        assert Zt.divides_exact(2, ZT.element([4, 0, -6])) == \
            ZT.element([2, 0, -3])
        assert Zt.divides_exact(2, ZT.element([4, 1, -6])) is None
        assert Zt.divides_exact(5, ZT.zero) == ZT.zero

    def test_denominators_and_the_maps_to_and_from_the_ring(self):
        K = QuadraticField(-3)
        x = K.element(Fraction(1, 2), Fraction(1, 6))   # 1/2 + sqrt(-3)/6
        s = K.denominator(x)
        assert s == 3                    # on the basis 1, (1+sqrt(-3))/2
        assert K.coerce(K.to_integral(x, s)) == x * s
        assert K.to_integral(x, 6).dom is QuadraticIntRing(-3)
        assert K.divides_exact(6, K.to_integral(x, 6)) == x
        p = QT.element([Fraction(1, 4), 0, Fraction(5, 6)])
        assert QT.denominator(p) == 12
        assert QT.to_integral(p, 24) == ZT.element([6, 0, 20])
        assert QT.divides_exact(24, ZT.element([6, 0, 20])) == p
        assert QT.denominator(QT.zero) == 1
        assert QQ.divides_exact(12, QQ.to_integral(Fraction(-5, 6), 12)) \
            == Fraction(-5, 6)


class TestDecomposeOverField:
    def test_non_monic(self):
        f = qpoly([0, 0, 1, 0, 2])                # 2x^4 + x^2
        dec = decompose_over_field(f, 2)
        assert dec is not None
        assert dec.g == qpoly([0, 1, 2])
        assert dec.h == qpoly([0, 0, 1])
        assert dec.certificate == f

    def test_rational_leading(self):
        g = qpoly([Fraction(1, 3), 2, Fraction(5, 7)])
        h = qpoly([0, -2, 0, 1])
        f = compose(g, h)
        dec = decompose_over_field(f, 3)
        assert dec is not None
        assert dec.certificate == f

    def test_non_monic_needs_field(self):
        t = Polynomial.identity(QQ, "t")
        lead = QT.coerce(t)
        f = Polynomial(QT, [QT.zero, QT.zero, QT.one, QT.zero, lead], "x")
        with pytest.raises(CapabilityError):
            decompose_over_field(f, 2)

    def test_unit_lead_over_q_t(self):
        f = Polynomial(QT, [0, 0, 1, 0, 2], "x")          # 2x^4 + x^2
        dec = decompose_over_field(f, 2)
        assert dec.g == Polynomial(QT, [0, 1, 2], "x")
        assert dec.h == Polynomial(QT, [0, 0, 1], "x")
        assert dec.certificate == f

    def test_indecomposable(self):
        assert decompose_over_field(qpoly([0, 1, 0, 0, 3]), 2) is None


class TestQuarticClosedForm:
    def test_direct_formula(self):
        # c = a3/(2 a4), e = a2 - a4 c^2, decomposable iff a1 = e c
        f = qpoly([7, 6, 11, 6, 1])
        dec = quartic_field_decompose(f)
        assert dec is not None
        c = Fraction(6, 2)
        assert dec.h == qpoly([0, c, 1])
        assert dec.certificate == f

    def test_indecomposable_quartic(self):
        assert quartic_field_decompose(qpoly([0, 1, 0, 0, 1])) is None

    def test_agrees_with_generic_path_on_random_quartics(self):
        rng = random.Random(41)
        agree = disagree = 0
        for _ in range(400):
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                      for _ in range(4)]
            lead = Fraction(0)
            while lead == 0:
                lead = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            f = qpoly(coeffs + [lead])
            a = quartic_field_decompose(f)
            b = decompose_over_field(f, 2)
            if (a is None) == (b is None):
                agree += 1
            else:
                disagree += 1
            if a is not None:
                assert a.certificate == f
        assert disagree == 0
        assert agree == 400

    def test_composed_quartics_always_found(self):
        rng = random.Random(43)
        for _ in range(200):
            g = qpoly([rng.randint(-9, 9), rng.randint(-9, 9),
                       rng.choice([-3, -2, -1, 1, 2, 3])])
            h = qpoly([0, rng.randint(-9, 9), 1])
            f = compose(g, h)
            dec = quartic_field_decompose(f)
            assert dec is not None
            assert dec.certificate == f

    def test_over_quadratic_field(self):
        d = K5.element(-4, -2)
        ell = K5.element(2)
        c = K5.element(Fraction(1, 2), Fraction(1, 2))
        g = Polynomial(K5, [K5.element(0), ell, d], "x")
        h = Polynomial(K5, [K5.element(0), c, K5.element(1)], "x")
        f = compose(g, h)
        dec = quartic_field_decompose(f)
        assert dec is not None
        assert dec.g == g and dec.h == h


def fraction_closed_form(f):
    """The closed form computed in the field's own Fraction coordinates:
    c = a3/(2 a4), e = a2 - a4 c^2, and f decomposes iff a1 = e*c."""
    dom = f.domain
    a4 = f.coefficient(4)
    c = f.coefficient(3) / (a4 * 2)
    e = f.coefficient(2) - a4 * c * c
    if f.coefficient(1) != e * c:
        return None
    return Decomposition(Polynomial(dom, [f.constant_term, e, a4], f.var),
                         Polynomial(dom, [dom.zero, c, dom.one], f.var))


CLOSED_FORM_FIELDS = {"Q": QQ, **{f"Q(sqrt({d}))": QuadraticField(d)
                                  for d in (-1, -3, -5, -15)}}


def field_coefficients(field, nonzero=False):
    """Field elements r + s*sqrt(d) with denominators up to 10^3."""
    coords = st.fractions(min_value=-50, max_value=50, max_denominator=1000)
    if field is QQ:
        out = coords
    else:
        out = st.builds(field.element, coords, coords)
    return out.filter(lambda x: x != 0) if nonzero else out


@st.composite
def closed_form_quartics(draw, field):
    """Quartics over the field, half of them compositions; either one may
    have a3 = 0 (an inner factor with no linear term, when composed) or
    a1 = 0."""
    coeff, unit = field_coefficients(field), field_coefficients(field, True)
    if draw(st.booleans()):
        g = [draw(coeff), draw(coeff), draw(unit)]
        h = [draw(coeff), draw(coeff), draw(unit)]
        if draw(st.booleans()):
            h[1] = field.zero                   # a3 = a1 = 0
        return compose(Polynomial(field, g, "x"), Polynomial(field, h, "x"))
    coeffs = [draw(coeff) for _ in range(4)] + [draw(unit)]
    for k in draw(st.sampled_from([(), (3,), (1,), (1, 3)])):
        coeffs[k] = field.zero
    return Polynomial(field, coeffs, "x")


class TestClosedFormOnTheIntegralLift:
    """quartic_field_decompose decides on the integral lift, and answers
    as the closed form in the field's Fraction coordinates does."""

    @pytest.mark.parametrize("name", sorted(CLOSED_FORM_FIELDS))
    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_same_outcome_as_the_fraction_closed_form(self, name, data):
        field = CLOSED_FORM_FIELDS[name]
        f = data.draw(closed_form_quartics(field))
        got = quartic_field_decompose(f)
        assert got == fraction_closed_form(f)
        if got is not None:
            for c in got.g.coeffs + got.h.coeffs:
                if field is QQ:
                    assert type(c) is Fraction
                else:
                    assert c.dom is field
                    assert type(c.a) is Fraction and type(c.b) is Fraction


class TestQuarticRingDecide:
    def test_witness_is_ring_indecomposable(self):
        f = Polynomial(R5, [R5.element(0), R5.element(1, 1), R5.element(11),
                            R5.element(6, -6), R5.element(-4, -2)], "x")
        out = quartic_ring_decide(f)
        assert out.status is RingDecideStatus.INDECOMPOSABLE_OVER_RING
        assert out.decomposition is None
        assert out.field_evidence is not None
        assert out.field_evidence.h.coefficient(1) \
            == K5.element(Fraction(1, 2), Fraction(1, 2))
        flags = {str(c.u): (c.square_divides_lead, c.divides_linear,
                            c.inner_stays_in_ring) for c in out.candidates}
        assert flags["1"] == (True, True, False)
        assert flags["1-w"] == (True, False, True)
        assert not any(c.passed for c in out.candidates)

    def test_decomposable_over_z(self):
        f = zpoly([0, 2, 5, 4, 4])    # (x^2+2x) o (2x^2+x) = 4x^4+4x^3+5x^2+2x
        out = quartic_ring_decide(f)
        assert out.status is RingDecideStatus.DECOMPOSABLE_OVER_RING
        g, h = out.decomposition
        assert compose(g, h) == f
        assert g.domain is ZZ and h.domain is ZZ

    def test_field_indecomposable(self):
        out = quartic_ring_decide(zpoly([0, 1, 0, 0, 1]))
        assert out.status is RingDecideStatus.INDECOMPOSABLE_OVER_FIELD
        assert out.field_evidence is None
        assert out.candidates == ()

    def test_monic_case_matches_monic_path(self):
        rng = random.Random(47)
        for _ in range(150):
            g = zpoly([rng.randint(-9, 9), rng.randint(-9, 9), 1])
            h = zpoly([0, rng.randint(-9, 9), 1])
            f = compose(g, h)
            out = quartic_ring_decide(f)
            assert out.status is RingDecideStatus.DECOMPOSABLE_OVER_RING
            assert compose(*out.decomposition) == f

    def test_needs_divisor_support(self):
        t = Polynomial.identity(ZZ, "t")
        f = Polynomial(ZT, [ZT.zero, ZT.zero, ZT.coerce(t), ZT.zero,
                            ZT.one], "x")
        with pytest.raises(CapabilityError, match="^Z\\[t\\] has no"):
            quartic_ring_decide(f)
        # the message names the ring of f, Z[t2,t3] too
        f = Polynomial(ZT23, [0, 0, t ** 2, 0, 1], "x")
        with pytest.raises(CapabilityError, match="^Z\\[t2,t3\\] has no"):
            quartic_ring_decide(f)

    def test_rejects_non_quartic(self):
        with pytest.raises(ValueError):
            quartic_ring_decide(zpoly([0, 1, 1]))


class TestDecomposeOverRing:
    def test_monic_hit_descends(self):
        f = zpoly([1, 0, 1, 2, 1])    # (x^2 + 1) o (x^2 + x)
        out = decompose_over_ring(f, [2])
        assert out.status is RingDecideStatus.DECOMPOSABLE_OVER_RING
        assert out.candidates is None
        assert out.decomposition.g.domain is ZZ
        assert out.decomposition.certificate == f
        assert out.field_evidence is out.decomposition

    def test_unit_lead_is_multiplied_back(self):
        f = zpoly([3, 0, -2, 0, -1])  # -x^4 - 2x^2 + 3
        out = decompose_over_ring(f, proper_inner_degrees(4))
        assert out.status is RingDecideStatus.DECOMPOSABLE_OVER_RING
        assert out.decomposition.g == zpoly([3, -2, -1])
        assert out.decomposition.certificate == f
        assert out.field_evidence is out.decomposition

    def test_unit_lead_over_the_t_rings(self):
        t = Polynomial.identity(ZZ, "t")
        f = Polynomial(ZT, [0, 0, t * -2, 0, -1], "x")   # -x^4 - 2t x^2
        out = decompose_over_ring(f, [2])
        assert out.status is RingDecideStatus.DECOMPOSABLE_OVER_RING
        assert out.decomposition.g == Polynomial(ZT, [0, t * -2, -1], "x")
        assert out.decomposition.h == Polynomial(ZT, [0, 0, 1], "x")
        assert out.decomposition.certificate == f
        out = decompose_over_ring(Polynomial(QT, [0, 0, 1, 0, 2], "x"), [2])
        assert out.status is RingDecideStatus.DECOMPOSABLE_OVER_RING
        with pytest.raises(CapabilityError, match="degree 4 over Q\\[t\\];"):
            decompose_over_ring(Polynomial(QT, [0, 0, 1, 0, t], "x"), [2])

    def test_monic_field_indecomposable(self):
        out = decompose_over_ring(zpoly([1, 1, 0, 0, 1]), [2])
        assert out.status is RingDecideStatus.INDECOMPOSABLE_OVER_FIELD
        assert out.field_evidence is None and out.candidates is None

    def test_non_monic_quartic_uses_the_candidate_search(self):
        f = zpoly([0, 2, 5, 4, 4])
        assert decompose_over_ring(f, [2]) == quartic_ring_decide(f)
        with pytest.raises(ValueError, match="only admits inner degree 2"):
            decompose_over_ring(f, [3])

    def test_restriction_is_checked(self):
        # Z[t2,t3] restricts Z[t]: the pair found lies in it
        t = Polynomial.identity(ZZ, "t")
        g = Polynomial(ZT23, [ZT23.zero, t ** 2, ZT23.one], "x")
        h = Polynomial(ZT23, [ZT23.zero, t ** 3, ZT23.one], "x")
        out = decompose_over_ring(compose(g, h), [2])
        assert out.decomposition == Decomposition(g, h)
        assert out.decomposition.g.domain is ZT23

    def test_undecidable_input_names_the_ring(self):
        f = zpoly([0, 0, 0, 1, 0, 0, 2])
        with pytest.raises(CapabilityError, match="degree 6 over Z;"):
            decompose_over_ring(f, [2, 3])
        with pytest.raises(CapabilityError, match="over Z\\[t2,t3\\];"):
            decompose_over_ring(Polynomial(ZT23, [0, 0, 1, 0, 2], "x"), [2])


def fields_of(out):
    """An outcome as (status, decomposition, field_evidence, candidates),
    the tuple the oracles below return."""
    return out.status, out.decomposition, out.field_evidence, out.candidates


def parent_unit_lead_decide(f, degrees):
    """The over-ring decision as it was with the lead divided out first,
    as (status, decomposition, field_evidence, candidates).

    A unit lead is divided out, the monic f is solved over the hull for
    each inner degree, and the unit is multiplied back into both g's.
    """
    ring = f.domain
    unit = None
    if not f.is_monic():
        unit = f.leading_coefficient
        f = f.scale(ring.divides_exact(unit, ring.one))

    def times_unit(dec):
        if unit is None or dec is None:
            return dec
        return Decomposition(dec.g.scale(unit), dec.h)

    fh = embed_poly(f, hull_of(ring))
    field_dec = None
    for m in degrees:
        dec = monic_decompose(fh, m)
        if dec is None:
            continue
        if field_dec is None:
            field_dec = dec
        g = descend_poly(dec.g, ring)
        h = descend_poly(dec.h, ring)
        if g is not None and h is not None:
            return (RingDecideStatus.DECOMPOSABLE_OVER_RING,
                    times_unit(Decomposition(g, h)), times_unit(field_dec),
                    None)
    status = (RingDecideStatus.INDECOMPOSABLE_OVER_FIELD if field_dec is None
              else RingDecideStatus.INDECOMPOSABLE_OVER_RING)
    return status, None, times_unit(field_dec), None


def parent_field_loop(fh, degrees, decide=decompose_over_field):
    """The decompose command's own loop over a field: the first pair found
    by ``decide`` for one inner degree, as (status, decomposition,
    field_evidence, candidates) of the outcome the library gives for it."""
    for m in degrees:
        dec = decide(fh, m)
        if dec is not None:
            return RingDecideStatus.DECOMPOSABLE_OVER_RING, dec, dec, None
    return RingDecideStatus.INDECOMPOSABLE_OVER_FIELD, None, None, None


O3 = QuadraticIntRing(-3)
small_ints = st.integers(-3, 3)
t_coeffs = st.lists(small_ints, max_size=3)
#: ring, its elements and its units
UNIT_LEAD_RINGS = {
    "Z": (ZZ, small_ints, ZZ.elements_of_norm(1)),
    "O(-3)": (O3, st.builds(O3.element, small_ints, small_ints),
              O3.elements_of_norm(1)),
    "Z[sqrt(-5)]": (R5, st.builds(R5.element, small_ints, small_ints),
                    R5.elements_of_norm(1)),
    "Z[t]": (ZT, t_coeffs.map(ZT.element), [ZT.one, -ZT.one]),
    "Z[t2,t3]": (ZT23, t_coeffs.map(
        lambda c: ZT23.element(c[:1] + [0] + c[2:])), [ZT23.one, -ZT23.one]),
}
#: an element of each ring beyond the integers
RING_EXTRAS = {"Z": 3, "Z[sqrt(-5)]": R5.element(1, 1),
               "Z[t]": ZT.element([0, 1]), "Z[t2,t3]": ZT23.element([0, 0, 1])}
FIELDS = {name: DOMAIN_ELEMENTS[name] for name in ("Q", "Q(sqrt(-5))")}


@st.composite
def led_composition(draw, dom, element, leads):
    """g(h), sometimes plus c*x, with g and h of degree 2..3 led by leads."""
    def factor():
        deg = draw(st.integers(2, 3))
        return Polynomial(dom, [draw(element) for _ in range(deg)]
                          + [draw(leads)], "x")

    f = compose(factor(), factor())
    if draw(st.booleans()):
        f = f + Polynomial(dom, [dom.zero, draw(element)], "x")
    return f


class TestUnitLeadStaysInTheRing:
    @pytest.mark.parametrize("ring", sorted(RING_EXTRAS))
    def test_no_hull_round_trip(self, ring, monkeypatch):
        def refuse(*args):
            raise AssertionError("a unit lead went through the hull")

        monkeypatch.setattr(decomp, "hull_of", refuse)
        monkeypatch.setattr(decomp, "embed_poly", refuse)
        dom, a = UNIT_LEAD_RINGS[ring][0], RING_EXTRAS[ring]
        g = Polynomial(dom, [1, a, 0, -1], "x")      # -x^3 + a*x + 1
        h = Polynomial(dom, [a, 0, a, 1], "x")       # x^3 + a*x^2 + a
        f = compose(g, h)
        degrees = proper_inner_degrees(9)
        out = decompose_over_ring(f, degrees)
        assert out.status is RingDecideStatus.DECOMPOSABLE_OVER_RING
        assert out.decomposition.g.domain is dom
        assert out.decomposition.certificate == f
        out = decompose_over_ring(f + Polynomial(dom, [0, 1], "x"), degrees)
        assert out.status is RingDecideStatus.INDECOMPOSABLE_OVER_FIELD


class TestOneLeadNormalisation:
    """decompose_over_ring against the two paths it replaced."""

    @pytest.mark.parametrize("ring", sorted(UNIT_LEAD_RINGS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_unit_lead_matches_the_pre_division(self, ring, data):
        dom, element, units = UNIT_LEAD_RINGS[ring]
        f = data.draw(led_composition(dom, element, st.sampled_from(units)))
        degrees = proper_inner_degrees(f.degree)
        out = decompose_over_ring(f, degrees)
        # the reference's evidence is its pair over the hull
        hull = hull_of(dom)
        status, dec, evidence, candidates = fields_of(out)
        if evidence is not None:
            evidence = Decomposition(embed_poly(evidence.g, hull),
                                     embed_poly(evidence.h, hull))
        assert (status, dec, evidence, candidates) \
            == parent_unit_lead_decide(f, degrees)
        if out.decomposition is not None:
            assert out.decomposition.certificate == f

    @pytest.mark.parametrize("field", sorted(FIELDS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_field_lead_matches_the_command_loop(self, field, data):
        dom, element = FIELDS[field]
        f = data.draw(led_composition(
            dom, element, element.filter(lambda c: c != dom.zero)))
        degrees = proper_inner_degrees(f.degree)
        out = decompose_over_ring(f, degrees)
        assert fields_of(out) == parent_field_loop(f, degrees)
        if out.decomposition is not None:
            assert out.decomposition.certificate == f


def subtract_and_add_back(f, m):
    """decompose_over_field in the form that subtracted f~(0) from
    f~ = f / lc(f) before the monic solve and added f(0) back to g after
    it, here applied to monic f as well."""
    dom = f.domain
    lc = f.leading_coefficient
    ftilde = f.map_coefficients(lambda c: dom.divides_exact(lc, c))
    inner = monic_decompose(ftilde - ftilde.constant_term, m)
    if inner is None:
        return None
    return Decomposition(inner.g.scale(lc) + f.constant_term, inner.h)


def _nonzero(dom, element):
    return element.filter(lambda c: c != dom.zero)


_k5_elements = DOMAIN_ELEMENTS["Q(sqrt(-5))"][1]
#: domain, its elements, and the leads of g and h: any nonzero element of
#: a field, a unit elsewhere
CONSTANT_TERM_DOMAINS = {
    "Q": (QQ, small_fractions, _nonzero(QQ, small_fractions)),
    "Q(sqrt(-5))": (K5, _k5_elements, _nonzero(K5, _k5_elements)),
    "Q[t]": (QT, st.lists(small_fractions, max_size=3).map(QT.element),
             _nonzero(QQ, small_fractions).map(QT.coerce)),
    "Z": (ZZ, small_ints, st.sampled_from([1, -1])),
    "Z[t]": (ZT, t_coeffs.map(ZT.element), st.sampled_from([ZT.one,
                                                            -ZT.one])),
}


@st.composite
def constant_term_input(draw, dom, element, leads):
    """f of degree 4..16 with a random constant term: g(h) for g and h of
    degree 2..4, sometimes plus c*x^k, or a random polynomial."""
    def poly(deg):
        return Polynomial(dom, [draw(element) for _ in range(deg)]
                          + [draw(leads)], "x")

    if draw(st.booleans()):
        f = compose(poly(draw(st.integers(2, 4))),
                    poly(draw(st.integers(2, 4))))
        if draw(st.booleans()):
            k = draw(st.integers(1, f.degree - 1))
            f = f + Polynomial.monomial(dom, draw(element), k, "x")
    else:
        f = poly(draw(st.sampled_from([4, 6, 8, 9, 10, 12, 14, 15, 16])))
    return Polynomial(dom, [draw(element), *f.coeffs[1:]], "x")


class TestConstantTermOutsideTheLift:
    """f(0) is g(0): monic_decompose sets it directly, and
    decompose_over_field passes f/lc(f) on with its constant term."""

    def test_no_polynomial_is_subtracted_or_added(self, monkeypatch):
        w = K5.element(0, 1)
        pairs = [  # non-monic over Q and Q(sqrt(-5)), lead -1 over Z
            (qpoly([Fraction(1, 7), 2, Fraction(-3, 5)]), qpoly([1, 0, 2, 1])),
            (Polynomial(K5, [Fraction(1, 3), w, w + 2], "x"),
             Polynomial(K5, [1, w, 1], "x")),
            (zpoly([5, 3, 0, -1]), zpoly([2, 1, 1])),
        ]
        hits = [(compose(g, h), h) for g, h in pairs]
        misses = [(f + Polynomial(f.domain, [0, 1], "x"), h)
                  for f, h in hits]

        def refuse(self, other):
            raise AssertionError("a polynomial was added or subtracted")

        monkeypatch.setattr(Polynomial, "__add__", refuse)
        monkeypatch.setattr(Polynomial, "__sub__", refuse)
        found = [decompose_over_field(f, h.degree) for f, h in hits]
        missed = [decompose_over_field(f, h.degree) for f, h in misses]
        monkeypatch.undo()
        for (f, h), dec in zip(hits, found):
            assert dec.h == h - h.constant_term
            assert dec.g.constant_term == f.constant_term
            assert dec.certificate == f
        assert missed == [None, None, None]

    @pytest.mark.parametrize("domain", sorted(CONSTANT_TERM_DOMAINS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_the_subtract_and_add_back_form(self, domain, data):
        dom, element, leads = CONSTANT_TERM_DOMAINS[domain]
        f = data.draw(constant_term_input(dom, element, leads))
        for m in proper_inner_degrees(f.degree):
            dec = decompose_over_field(f, m)
            assert dec == subtract_and_add_back(f, m)
            if dec is not None:
                assert dec.certificate == f


class TestLinearRelate:
    def test_finds_the_map(self):
        h = qpoly([0, 3, 1])
        H = h.map_coefficients(lambda c: c * 2) + 5
        rel = linear_relate(h, H)
        assert rel == (Fraction(2), Fraction(5))

    def test_none_when_not_related(self):
        assert linear_relate(qpoly([0, 3, 1]), qpoly([0, 4, 1])) is None
        with pytest.raises(ValueError):
            linear_relate(qpoly([0, 3, 1]), qpoly([0, 0, 0, 1]))

    def test_inner_factors_of_equal_degree_are_linearly_related(self):
        # any two monic inner factors of the same f differ by a shift
        rng = random.Random(59)
        for _ in range(80):
            g = qpoly([rng.randint(-5, 5), rng.randint(-5, 5), 1])
            h = qpoly([0, rng.randint(-5, 5), 1])
            f = compose(g, h)
            dec = monic_decompose(f, 2)
            assert dec is not None
            rel = linear_relate(h, dec.h)
            assert rel is not None
            a, b = rel
            assert a == 1        # both monic: the map is a pure shift


class TestTaylorExpansion:
    def test_verifies_composition_with_moved_inner(self):
        G = qpoly([2, 0, 1, 1])
        h = qpoly([0, 1, 1])
        h0 = qpoly([3])
        a = Fraction(2)
        assert verify_taylor_expansion(G, h, h0, a)

    def test_polynomial_base_point(self):
        # the expansion point h0 may itself be a polynomial
        G = qpoly([2, 0, 1, 1])
        h = qpoly([0, 1, 1])
        h0 = qpoly([1, -2, 0, 1])
        assert verify_taylor_expansion(G, h, h0, Fraction(1, 3))

    def test_needs_integer_division(self):
        G = Polynomial(ZT, [ZT.zero, ZT.zero, ZT.one], "x")
        with pytest.raises(CapabilityError):
            verify_taylor_expansion(G, G, Polynomial(ZT, [ZT.one], "x"), 1)

    @given(st.lists(st.integers(-5, 5), min_size=3, max_size=5),
           st.lists(st.integers(-5, 5), min_size=2, max_size=4),
           st.integers(-4, 4), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_identity_holds_generically(self, gc, hc, c0, a):
        G = qpoly(gc + [1])
        h = qpoly(hc + [1])
        h0 = qpoly([c0])
        assert verify_taylor_expansion(G, h, h0, Fraction(a))


#: Degree 24 over Q with lead 2.  f' is Eisenstein at 5: 5 divides every
#: lower coefficient k*a_k, 25 does not divide a_1 = 5, and 5 does not
#: divide 24*2.  So f' is irreducible and f is indecomposable.
EISENSTEIN_24 = qpoly([1, 5] + [5 * (-1) ** k for k in range(2, 24)] + [2])


def per_degree_over_field(f, m):
    """decompose_over_field in the form that divided f by lc(f) anew for
    every inner degree."""
    if f.is_monic():
        return monic_decompose(f, m)
    dom = f.domain
    lc = f.leading_coefficient
    inner = monic_decompose(
        f.map_coefficients(lambda c: dom.divides_exact(lc, c)), m)
    if inner is None:
        return None
    return Decomposition(inner.g.scale(lc), inner.h)


def per_degree_fully(f):
    """decompose_fully over per_degree_over_field."""
    for m in proper_inner_degrees(f.degree):
        dec = per_degree_over_field(f, m)
        if dec is not None:
            return per_degree_fully(dec.g) + per_degree_fully(dec.h)
    return [f]


#: rational leads over the fields, leads +-1 over the rings
ONE_DIVISION_DOMAINS = {name: CONSTANT_TERM_DOMAINS[name]
                        for name in ("Q", "Q(sqrt(-5))", "Z", "Z[t]")}


@st.composite
def chain_input(draw, dom, element, leads):
    """f of degree 4..24: a chain of two or three factors of degree 2..4,
    sometimes plus c*x^k, or a random polynomial."""
    def poly(deg):
        return Polynomial(dom, [draw(element) for _ in range(deg)]
                          + [draw(leads)], "x")

    if draw(st.booleans()):
        degrees = draw(st.lists(st.integers(2, 4), min_size=2,
                                max_size=3).filter(
            lambda ds: math.prod(ds) <= 24))
        f = poly(degrees[-1])
        for d in reversed(degrees[:-1]):
            f = compose(poly(d), f)
        if draw(st.booleans()):
            k = draw(st.integers(1, f.degree - 1))
            f = f + Polynomial.monomial(dom, draw(element), k, "x")
        return f
    return poly(draw(st.integers(4, 24)))


class TestOneDivisionPerPolynomial:
    """decompose_fully, decompose_over_ring and decompose_over_field divide
    f by its lead once, and try every inner degree on the same monic f/lc."""

    def test_decompose_fully_divides_each_coefficient_once(
            self, hull_divisions):
        # six inner degrees, 25 coefficients: the per-degree form made 150
        assert decompose_fully(EISENSTEIN_24) == [EISENSTEIN_24]
        assert len(hull_divisions) == 25

    def test_decompose_over_ring_divides_each_coefficient_once(
            self, hull_divisions):
        out = decompose_over_ring(EISENSTEIN_24, proper_inner_degrees(24))
        assert out.status is RingDecideStatus.INDECOMPOSABLE_OVER_FIELD
        assert len(hull_divisions) == 25

    def test_decompose_over_field_divides_each_coefficient_once(
            self, hull_divisions):
        assert decompose_over_field(EISENSTEIN_24, 6) is None
        assert len(hull_divisions) == 25

    def test_every_degree_solves_the_same_monic_polynomial(self,
                                                           monkeypatch):
        seen = []
        original = decomp.monic_decompose

        def spy(f, m):
            seen.append((f, m))
            return original(f, m)

        monkeypatch.setattr(decomp, "monic_decompose", spy)
        degrees = proper_inner_degrees(24)
        for decide in (decompose_fully,
                       lambda f: decompose_over_ring(f, degrees)):
            del seen[:]
            decide(EISENSTEIN_24)
            assert [m for _, m in seen] == degrees
            monic = seen[0][0]
            assert monic.is_monic()
            assert monic.scale(2) == EISENSTEIN_24
            assert all(f is monic for f, _ in seen)

    @pytest.mark.parametrize("domain", sorted(ONE_DIVISION_DOMAINS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_the_per_degree_form(self, domain, data):
        dom, element, leads = ONE_DIVISION_DOMAINS[domain]
        f = data.draw(chain_input(dom, element, leads))
        found = decompose_fully(f)
        assert found == per_degree_fully(f)
        acc = found[-1]
        for c in reversed(found[:-1]):
            acc = compose(c, acc)
        assert acc == f
        degrees = proper_inner_degrees(f.degree)
        assert fields_of(decompose_over_ring(f, degrees)) \
            == parent_field_loop(f, degrees, per_degree_over_field)


class TestDecomposeFully:
    def test_unit_lead_over_z_is_the_q_chain(self):
        rng = random.Random(67)
        for _ in range(40):
            shape = rng.choice(((2, 2), (2, 3), (3, 2), (2, 2, 2)))
            chain = [zpoly([rng.randint(-4, 4) for _ in range(d)]
                           + [rng.choice((1, -1))]) for d in shape]
            f = chain[-1]
            for c in reversed(chain[:-1]):
                f = compose(c, f)
            found = decompose_fully(f)
            assert found == [descend_poly(c, ZZ)
                             for c in decompose_fully(embed_poly(f, QQ))]
            assert len(found) == len(shape)

    def test_power_chain(self):
        f = qpoly([0] * 8 + [1])                 # x^8
        chain = decompose_fully(f)
        assert len(chain) == 3
        assert all(c == qpoly([0, 0, 1]) for c in chain)

    def test_chain_composes_back(self):
        rng = random.Random(61)
        for _ in range(40):
            g = qpoly([rng.randint(-4, 4), rng.randint(-4, 4), 1])
            h = qpoly([0, rng.randint(-4, 4), 1])
            k = qpoly([0, rng.randint(-4, 4), 1])
            f = compose(g, compose(h, k))
            chain = decompose_fully(f)
            acc = chain[-1]
            for c in reversed(chain[:-1]):
                acc = compose(c, acc)
            assert acc == f
            assert all(cc.degree >= 2 for cc in chain)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_ritt_first_theorem_on_prime_degree_chains(self, data):
        # factors of prime degree are indecomposable, so the chain is
        # complete, and every complete chain of f (Ritt's first theorem)
        # has the same multiset of degrees
        degrees = data.draw(st.lists(st.sampled_from([2, 3, 5]), min_size=2,
                                     max_size=4).filter(
            lambda ds: math.prod(ds) <= 60))
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        chain = [qpoly([data.draw(coeff) for _ in range(d)]
                       + [data.draw(coeff.filter(lambda c: c != 0))])
                 for d in degrees]
        f = chain[-1]
        for c in reversed(chain[:-1]):
            f = compose(c, f)
        found = decompose_fully(f)
        assert sorted(c.degree for c in found) == sorted(degrees)
        acc = found[-1]
        for c in reversed(found[:-1]):
            acc = compose(c, acc)
        assert acc == f

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_ritt_first_theorem_with_composite_degrees(self, data):
        # factors of degree 4 or 6 are kept only when indecomposable, and
        # a linear insertion c_i o l, l^-1 o c_(i+1) between neighbours
        # changes the factors but not f; every complete chain of f still
        # has the same length and the same multiset of degrees
        degrees = data.draw(st.lists(st.sampled_from([2, 3, 4, 6]),
                                     min_size=2, max_size=3).filter(
            lambda ds: math.prod(ds) <= 72 and {4, 6} & set(ds)))
        coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
        nonzero = coeff.filter(lambda c: c != 0)
        chain = [qpoly([data.draw(coeff) for _ in range(d)]
                       + [data.draw(nonzero)]) for d in degrees]
        for c in chain:
            if c.degree in (4, 6):
                assume(decompose_fully(c) == [c])
        for i in range(len(chain) - 1):
            a, b = data.draw(nonzero), data.draw(coeff)
            ell = qpoly([b, a])
            ell_inv = qpoly([-b / a, 1 / a])
            chain[i] = compose(chain[i], ell)
            chain[i + 1] = compose(ell_inv, chain[i + 1])
        f = chain[-1]
        for c in reversed(chain[:-1]):
            f = compose(c, f)
        found = decompose_fully(f)
        assert len(found) == len(degrees)
        assert sorted(c.degree for c in found) == sorted(degrees)
        acc = found[-1]
        for c in reversed(found[:-1]):
            acc = compose(c, acc)
        assert acc == f

    def test_indecomposable_stays_whole(self):
        f = qpoly([0, 1, 0, 0, 1])
        assert decompose_fully(f) == [f]

    def test_prime_degree(self):
        f = qpoly([1, 2, 3, 4, 5, 6, 7, 1])      # degree 7
        assert decompose_fully(f) == [f]

    def test_rejects_low_degree(self):
        with pytest.raises(ValueError):
            decompose_fully(qpoly([1, 1]))


class TestSubringTransfer:
    def test_monic_decomposition_descends_to_subring(self):
        # composition built inside the no-linear-term subring of Z[t];
        # recovery over Q[t] must land back inside it
        t = Polynomial.identity(ZZ, "t")
        r1 = ZT.coerce(t ** 2 - 3)
        r2 = ZT.coerce(t ** 3 + t ** 2)
        r3 = ZT.coerce(2 * t ** 2)
        g = Polynomial(ZT, [r1, r2, ZT.one], "x")
        h = Polynomial(ZT, [r3, r1, ZT.one], "x")
        f = compose(g, h)
        assert all(ZT23.is_element(c) for c in f.coeffs)
        dec = monic_decompose(embed_poly(f, QT), 2)
        assert dec is not None
        assert descend_poly(dec.g, ZT23) is not None
        assert descend_poly(dec.h, ZT23) is not None

    def test_membership_check_spots_escapes(self):
        t = Polynomial.identity(QQ, "t")
        g = Polynomial(QT, [QT.zero, QT.coerce(t), QT.one], "x")
        dec = Decomposition(g, g)
        assert descend_poly(dec.g, ZT) is not None
        assert descend_poly(dec.g, ZT23) is None
        assert descend_poly(dec.h, ZT23) is None

"""Core polynomial arithmetic: exactness, algebra laws, division."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polydecomp import (MINUS_INFINITY, DomainMismatchError, Polynomial,
                        QQ, QT, ZT23, ZZ, QuadraticField, QuadraticIntRing,
                        Tier, compose, derivative, divrem_monic, hadic_digits)


def zpoly(coeffs):
    return Polynomial(ZZ, coeffs, "x")


def qpoly(coeffs):
    return Polynomial(QQ, [Fraction(c) for c in coeffs], "x")


coeff_lists = st.lists(st.integers(-9, 9), min_size=0, max_size=7)


class TestBasics:
    def test_trailing_zeros_are_stripped(self):
        assert zpoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert zpoly([0, 0]).coeffs == ()

    def test_zero_degree_is_minus_infinity(self):
        z = Polynomial.zero(ZZ, "x")
        assert z.degree is MINUS_INFINITY
        assert z.degree < 0
        assert z.degree < -10 ** 9
        assert not (z.degree < MINUS_INFINITY)

    def test_degree_and_leading(self):
        p = zpoly([3, 0, 5])
        assert p.degree == 2
        assert p.leading_coefficient == 5
        assert p.constant_term == 3
        assert p.coefficient(1) == 0
        assert p.coefficient(99) == 0

    def test_constructors(self):
        assert Polynomial.identity(ZZ, "x") == zpoly([0, 1])
        assert Polynomial.constant(ZZ, 7, "x") == zpoly([7])
        assert Polynomial.monomial(ZZ, 3, 4, "x") == zpoly([0, 0, 0, 0, 3])

    def test_monic_flags(self):
        assert zpoly([0, 2, 1]).is_monic()
        assert not zpoly([0, 1, 2]).is_monic()
        assert zpoly([5]).is_constant()
        assert not zpoly([5]).is_zero()

    def test_mixed_domain_arithmetic_is_rejected(self):
        with pytest.raises(DomainMismatchError):
            zpoly([1]) + qpoly([1])

    def test_mixed_variable_arithmetic_is_rejected(self):
        with pytest.raises(DomainMismatchError):
            zpoly([0, 1]) + Polynomial(ZZ, [0, 1], "y")

    def test_a_polynomial_coefficient_stands_on_either_side(self):
        # s is an element of Z[t2,t3], so a coefficient of p
        s = ZT23.element([1, 0, 1])
        p = Polynomial(ZT23, [ZT23.element([2, 0, 0, 1]), ZT23.one, s], "x")
        assert s + p == p + s
        assert s - p == -(p - s)
        assert s * p == p * s
        assert (s + p).domain is (s * p).domain is ZT23

    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul], ids=["+", "-", "*"])
    def test_a_constant_of_q_t_in_the_subring_is_a_coefficient(self, op):
        # v is a polynomial over Q, but 3*t^2 + 2 lies in Z[t2,t3]
        p = Polynomial(ZT23, [ZT23.element([1, 0, 1]), ZT23.one], "x")
        v = QT.element([2, 0, 3])
        s = ZT23.coerce(v)
        assert op(p, v) == op(p, s) and op(v, p) == op(s, p)
        assert op(p, v).domain is op(v, p).domain is ZT23
        # a t^1 term or a non-integer coefficient is no coefficient of p
        for bad in (QT.element([2, 1]), QT.element([Fraction(1, 2)])):
            with pytest.raises(DomainMismatchError):
                op(p, bad)
            with pytest.raises(DomainMismatchError):
                op(bad, p)

    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul], ids=["+", "-", "*"])
    def test_operands_neither_side_can_take_are_a_mismatch(self, op):
        # never a RecursionError nor a bare "unsupported operand" TypeError
        pairs = ((zpoly([1, 2]), qpoly([1, 2])),
                 (zpoly([0, 1]), Polynomial(ZZ, [0, 1], "y")),
                 (Polynomial(ZT23, [ZT23.one], "x"), qpoly([1])))
        for left, right in pairs:
            for x, y in ((left, right), (right, left)):
                with pytest.raises(DomainMismatchError):
                    op(x, y)

    def test_reflected_methods_refuse_a_polynomial_that_is_no_coefficient(self):
        p = zpoly([1, 2])
        for method in (p.__radd__, p.__rsub__, p.__rmul__):
            assert method(qpoly([1])) is NotImplemented
        assert p.__rsub__(3) == zpoly([2, -2])

    def test_scalar_coercion(self):
        p = zpoly([1, 1])
        assert p + 2 == zpoly([3, 1])
        assert 2 + p == zpoly([3, 1])
        assert 3 * p == zpoly([3, 3])
        assert p - 1 == zpoly([0, 1])

    def test_evaluate(self):
        p = zpoly([1, 2, 3])
        assert p(2) == 1 + 4 + 12
        assert p(0) == 1
        q = qpoly([0, 1, 1])
        assert q(Fraction(1, 2)) == Fraction(3, 4)

    def test_str_roundtrip_samples(self):
        assert str(zpoly([0, -1, 0, 2])) == "2*x^3 - x"
        assert str(zpoly([5])) == "5"
        assert str(zpoly([])) == "0"
        assert str(qpoly([Fraction(1, 2), 0, 1])) == "x^2 + 1/2"


O3, K3 = QuadraticIntRing(-3), QuadraticField(-3)
O15, K15 = QuadraticIntRing(-15), QuadraticField(-15)


def _domain_values(draw_int):
    """(domain, value) pairs: a coefficient of each kind, or plain 0.

    Over O(-3) and O(-15) the ring element a + b*w is drawn both as
    itself and as its image in the field, so equal ring/field pairs occur.
    """
    r5, k5 = QuadraticIntRing(-5), QuadraticField(-5)
    pairs = st.tuples(draw_int, draw_int)
    half_basis = [
        st.tuples(st.just(dom), pairs.map(
            lambda ab, ring=ring, dom=dom: dom.coerce(ring.element(*ab))))
        for ring, field in ((O3, K3), (O15, K15)) for dom in (ring, field)]
    return st.one_of(
        st.tuples(st.just(ZZ), draw_int),
        st.tuples(st.just(QQ), st.fractions(max_denominator=5)),
        st.tuples(st.just(r5), pairs.map(lambda ab: r5.element(*ab))),
        st.tuples(st.just(k5), pairs.map(lambda ab: k5.element(*ab))),
        *half_basis,
        st.tuples(st.just(QT), st.lists(draw_int, max_size=3).map(
            lambda cs: Polynomial(QQ, cs, "t"))),
    )


class TestEqualityAndHash:
    @given(_domain_values(st.integers(-3, 3)),
           _domain_values(st.integers(-3, 3)), st.sampled_from(["x", "y"]))
    @example((O15, O15.element(0, 1)),
             (K15, K15.element(Fraction(1, 2), Fraction(1, 2))), "x")
    @example((O3, O3.element(1, 1)),
             (K3, K3.element(Fraction(3, 2), Fraction(1, 2))), "x")
    def test_equal_implies_same_hash(self, ours, theirs, var):
        dom, c = ours
        p = Polynomial.constant(dom, c, var)
        pairs = [(p, q) for q in (c, theirs[1], 0, Polynomial.zero(dom, var),
                                  Polynomial.constant(dom, c, "x"))]
        for x, y in pairs + [(c, theirs[1])]:
            if x == y:
                assert hash(x) == hash(y), (x, y)

    def test_constant_hashes_as_its_coefficient(self):
        assert Polynomial(QQ, [3], "x") == 3
        assert hash(Polynomial(QQ, [3], "x")) == hash(3)
        assert hash(Polynomial.zero(ZZ, "x")) == hash(0)
        assert len({Polynomial(QQ, [3], "x"), Fraction(3)}) == 1


class TestAlgebraLaws:
    @given(coeff_lists, coeff_lists)
    def test_addition_commutes(self, a, b):
        p, q = zpoly(a), zpoly(b)
        assert p + q == q + p

    @given(coeff_lists, coeff_lists)
    def test_degree_of_product(self, a, b):
        p, q = zpoly(a), zpoly(b)
        r = p * q
        if p.is_zero() or q.is_zero():
            assert r.is_zero()
        else:
            assert r.degree == p.degree + q.degree
            assert (r.leading_coefficient
                    == p.leading_coefficient * q.leading_coefficient)

    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_multiplication_distributes(self, a, b, c):
        p, q, r = zpoly(a), zpoly(b), zpoly(c)
        assert p * (q + r) == p * q + p * r

    @given(coeff_lists,
           st.integers(0, 5) | st.sampled_from([7, 8, 15, 16, 31, 32]))
    def test_power_matches_repeated_product(self, a, n):
        p = zpoly(a)
        expected = Polynomial.constant(ZZ, 1, "x")
        for _ in range(n):
            expected = expected * p
        assert p ** n == expected

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32])
    def test_power_squares_only_while_bits_remain(self, n, monkeypatch):
        # one multiplication per set bit and one squaring per bit after
        # the first; squaring past the top bit would be wasted work
        p = zpoly([1, -2, 1])
        expected = Polynomial.constant(ZZ, 1, "x")
        for _ in range(n):
            expected = expected * p
        calls = []
        mul = Polynomial.__mul__

        def counting(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counting)
        assert p ** n == expected
        assert len(calls) == bin(n).count("1") + max(n.bit_length() - 1, 0)

    @given(st.sampled_from([QuadraticIntRing(-5), QuadraticField(-5),
                            QuadraticIntRing(-15)]),
           st.integers(-4, 4), st.integers(-4, 4),
           st.integers(0, 5) | st.sampled_from([7, 8, 15, 16, 31, 32]))
    def test_element_power_matches_repeated_product(self, dom, a, b, n):
        x = dom.element(a, b)
        expected = dom.one
        for _ in range(n):
            expected = expected * x
        assert x ** n == expected
        if dom.tier == Tier.FIELD and x != dom.zero:
            assert x ** -n * expected == dom.one

    @pytest.mark.parametrize("dom", [QuadraticIntRing(-5), QuadraticField(-5)],
                             ids=["QuadraticInt", "QuadraticRat"])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 8, 15, 16, 31, 32])
    def test_element_power_squares_only_while_bits_remain(self, dom, n,
                                                          monkeypatch):
        x = dom.element(1, -2)
        expected = dom.one
        for _ in range(n):
            expected = expected * x
        cls = type(x)
        calls = []
        mul = cls.__mul__

        def counting(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counting)
        assert x ** n == expected
        assert len(calls) == bin(n).count("1") + max(n.bit_length() - 1, 0)

    @given(coeff_lists, st.integers(-20, 20))
    def test_evaluation_is_a_homomorphism(self, a, x0):
        p = zpoly(a)
        q = zpoly(list(reversed(a)))
        assert (p + q)(x0) == p(x0) + q(x0)
        assert (p * q)(x0) == p(x0) * q(x0)

    def test_derivative_product_rule(self):
        rng = random.Random(7)
        for _ in range(60):
            p = zpoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
            q = zpoly([rng.randint(-5, 5) for _ in range(rng.randint(0, 6))])
            assert (derivative(p * q)
                    == derivative(p) * q + p * derivative(q))


class TestCompose:
    def test_simple(self):
        g = zpoly([0, 2, 1])        # x^2 + 2x
        h = zpoly([0, 0, 1])        # x^2
        assert compose(g, h) == zpoly([0, 0, 2, 0, 1])

    def test_identity_neutral(self):
        x = Polynomial.identity(ZZ, "x")
        p = zpoly([3, -1, 4])
        assert compose(p, x) == p
        assert compose(x, p) == p

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=40)
    def test_composition_is_associative(self, a, b, c):
        p, q, r = zpoly(a), zpoly(b), zpoly(c)
        assert compose(compose(p, q), r) == compose(p, compose(q, r))

    @given(coeff_lists, coeff_lists, st.integers(-10, 10))
    @settings(max_examples=40)
    def test_composition_evaluates_pointwise(self, a, b, x0):
        g, h = zpoly(a), zpoly(b)
        assert compose(g, h)(x0) == g(h(x0))


class TestDivremMonic:
    def test_requires_monic(self):
        with pytest.raises(ValueError):
            divrem_monic(zpoly([1, 1]), zpoly([0, 2]))
        with pytest.raises(ValueError):
            divrem_monic(zpoly([1, 1]), zpoly([5]))

    @given(coeff_lists, st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    @settings(max_examples=80)
    def test_division_identity(self, a, hl):
        f = zpoly(a)
        h = zpoly(hl + [1])          # force monic
        q, r = divrem_monic(f, h)
        assert f == q * h + r
        assert r.is_zero() or r.degree < h.degree

    def test_exact_division(self):
        h = zpoly([1, 2, 1])
        q = zpoly([-3, 0, 5])
        f = q * h
        qq, rr = divrem_monic(f, h)
        assert qq == q and rr.is_zero()


class TestHadicDigits:
    @given(st.lists(st.integers(-9, 9), min_size=0, max_size=9),
           st.lists(st.integers(-9, 9), min_size=1, max_size=3))
    @settings(max_examples=80)
    def test_digits_reconstruct(self, a, hl):
        f = zpoly(a)
        h = zpoly(hl + [1])
        digits = hadic_digits(f, h)
        acc = Polynomial.zero(ZZ, "x")
        power = Polynomial.constant(ZZ, 1, "x")
        for d in digits:
            acc = acc + d * power
            power = power * h
        assert acc == f
        for d in digits:
            assert d.is_zero() or d.degree < h.degree
        if digits:
            assert not digits[-1].is_zero()

    def test_base_style_expansion(self):
        # (x^2)-adic digits of x^5 + 3x^4 + x + 2:
        #   f = (x + 2) + 0*(x^2) + (x + 3)*(x^2)^2
        f = zpoly([2, 1, 0, 0, 3, 1])
        h = zpoly([0, 0, 1])
        digits = hadic_digits(f, h)
        assert digits == [zpoly([2, 1]), zpoly([]), zpoly([3, 1])]

    def test_constant_digits_mean_composition(self):
        g = qpoly([7, 0, 2, 1])
        h = qpoly([0, 3, 1])
        f = compose(g, h)
        digits = hadic_digits(f, h)
        assert all(d.is_constant() for d in digits)
        assert [d.constant_term for d in digits] == list(g.coeffs)


class TestTaylorShift:
    @given(coeff_lists, st.integers(-10, 10))
    @settings(max_examples=60)
    def test_shift_then_unshift(self, a, k):
        p = zpoly(a)
        x = Polynomial.identity(ZZ, "x")
        shifted = compose(p, x + k)
        assert compose(shifted, x - k) == p

    def test_derivative_chain_rule_on_compose(self):
        g = zpoly([1, -2, 0, 1])
        h = zpoly([0, 3, 2])
        lhs = derivative(compose(g, h))
        rhs = compose(derivative(g), h) * derivative(h)
        assert lhs == rhs

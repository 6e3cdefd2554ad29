"""QuadraticElement against the two element classes it replaced.

The order O_d used to have its own element class on the integral basis
(``QuadraticInt``) and the field Q(sqrt(d)) another on 1, sqrt(d)
(``QuadraticRat``).  Both are kept below, as they were, as the reference:
wherever the reference returns a value, the one class must return the
same value, in the same domain, printing the same way.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polydecomp import QuadraticElement, QuadraticField, QuadraticIntRing, ZZ
from polydecomp.domains import _decimal
from polydecomp.poly import power


# ---------------------------------------------------------------------------
# the reference: the former classes, with stand-ins for their domains
# ---------------------------------------------------------------------------

def _ref_format_two_coords(first, second):
    if second == 0:
        return _decimal(first)
    if second == 1:
        wpart = "w"
    elif second == -1:
        wpart = "-w"
    elif second < 0:
        wpart = f"-{_decimal(-second)}*w"
    else:
        wpart = f"{_decimal(second)}*w"
    if first == 0:
        return wpart
    if wpart.startswith("-"):
        return f"{_decimal(first)}-{wpart[1:]}"
    return f"{_decimal(first)}+{wpart}"


class RefRing:
    def __init__(self, d):
        self.d = d
        self.half_basis = d % 4 == 1
        self.one = RefInt(self, 1, 0)

    def format_element(self, x):
        return _ref_format_two_coords(x.a, x.b)

    def descend(self, x):
        if x.field.d != self.d:
            return None
        a, b = (x.r - x.s, 2 * x.s) if self.half_basis else (x.r, x.s)
        if a.denominator == 1 and b.denominator == 1:
            return RefInt(self, a.numerator, b.numerator)
        return None


class RefField:
    def __init__(self, d):
        self.d = d
        self.name = f"Q(sqrt({d}))"
        self.one = RefRat(self, 1, 0)

    def format_element(self, x):
        return _ref_format_two_coords(x.r, x.s)

    def coerce(self, v):
        r, s = v.sqrt_coords()
        return RefRat(self, r, s)


class RefInt:
    __slots__ = ("ring", "a", "b")

    def __init__(self, ring, a, b=0):
        self.ring = ring
        self.a = a
        self.b = b

    def _wrap(self, other):
        if isinstance(other, RefInt):
            if other.ring.d != self.ring.d:
                raise TypeError("mixing elements of different quadratic rings")
            return other
        return RefInt(self.ring, ZZ.coerce(other), 0)

    def __add__(self, other):
        o = self._wrap(other)
        return RefInt(self.ring, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._wrap(other)
        return RefInt(self.ring, self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __neg__(self):
        return RefInt(self.ring, -self.a, -self.b)

    def __mul__(self, other):
        o = self._wrap(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        if self.ring.half_basis:
            q = (self.ring.d - 1) // 4
            return RefInt(self.ring, a * c + b * e * q, a * e + b * c + b * e)
        return RefInt(self.ring, a * c + b * e * self.ring.d, a * e + b * c)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power in a ring")
        return power(self, n, self.ring.one)

    def __eq__(self, other):
        if isinstance(other, RefInt):
            return (self.ring.d == other.ring.d and self.a == other.a
                    and self.b == other.b)
        if isinstance(other, int) and not isinstance(other, bool):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        r, s = self.sqrt_coords()
        if s == 0:
            return hash(r)
        return hash((self.ring.d, r, s))

    def conjugate(self):
        if self.ring.half_basis:
            return RefInt(self.ring, self.a + self.b, -self.b)
        return RefInt(self.ring, self.a, -self.b)

    def norm(self):
        if self.ring.half_basis:
            return (self.a * self.a + self.a * self.b
                    + self.b * self.b * (1 - self.ring.d) // 4)
        return self.a * self.a - self.ring.d * self.b * self.b

    def sqrt_coords(self):
        if self.ring.half_basis:
            return (Fraction(2 * self.a + self.b, 2), Fraction(self.b, 2))
        return (Fraction(self.a), Fraction(self.b))

    def __str__(self):
        return self.ring.format_element(self)


class RefRat:
    __slots__ = ("field", "r", "s")

    def __init__(self, field, r, s=0):
        self.field = field
        self.r = Fraction(r)
        self.s = Fraction(s)

    def _wrap(self, other):
        if isinstance(other, RefRat):
            if other.field.d != self.field.d:
                raise TypeError("mixing elements of different quadratic fields")
            return other
        if isinstance(other, RefInt):
            if other.ring.d != self.field.d:
                raise TypeError("mixing elements over different d")
            r, s = other.sqrt_coords()
            return RefRat(self.field, r, s)
        return RefRat(self.field, Fraction(other), 0)

    def __add__(self, other):
        o = self._wrap(other)
        return RefRat(self.field, self.r + o.r, self.s + o.s)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._wrap(other)
        return RefRat(self.field, self.r - o.r, self.s - o.s)

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __neg__(self):
        return RefRat(self.field, -self.r, -self.s)

    def __mul__(self, other):
        o = self._wrap(other)
        return RefRat(self.field,
                      self.r * o.r + self.field.d * self.s * o.s,
                      self.r * o.s + self.s * o.r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._wrap(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError(f"division by zero in {self.field.name}")
        return self * RefRat(self.field, o.r / n, -o.s / n)

    def __pow__(self, n):
        if n < 0:
            return self.field.one / power(self, -n, self.field.one)
        return power(self, n, self.field.one)

    def __eq__(self, other):
        if isinstance(other, RefRat):
            return (self.field.d == other.field.d and self.r == other.r
                    and self.s == other.s)
        if isinstance(other, RefInt):
            if other.ring.d != self.field.d:
                return False
            return (self.r, self.s) == other.sqrt_coords()
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.s == 0 and self.r == other
        return NotImplemented

    def __hash__(self):
        if self.s == 0:
            return hash(self.r)
        return hash((self.field.d, self.r, self.s))

    def conjugate(self):
        return RefRat(self.field, self.r, -self.s)

    def norm(self):
        return self.r * self.r - self.field.d * self.s * self.s

    def __str__(self):
        return self.field.format_element(self)


# ---------------------------------------------------------------------------
# strategies: the same value built twice
# ---------------------------------------------------------------------------

DS = (-1, -2, -3, -5, -6, -7, -15)

small_ints = st.integers(-12, 12)
small_fracs = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def ring_pairs(draw, d):
    a, b = draw(small_ints), draw(small_ints)
    return QuadraticIntRing(d).element(a, b), RefInt(RefRing(d), a, b)


@st.composite
def field_pairs(draw, d):
    r, s = draw(small_fracs), draw(small_fracs)
    return QuadraticField(d).element(r, s), RefRat(RefField(d), r, s)


@st.composite
def pairs_over_one_d(draw, kinds):
    """d, then one (new, reference) pair per entry of kinds."""
    d = draw(st.sampled_from(DS))
    make = {"ring": ring_pairs, "field": field_pairs}
    return d, [draw(make[kind](d)) for kind in kinds]


def assert_same(new, ref):
    """new is the reference's value, in the matching domain."""
    assert isinstance(new, QuadraticElement)
    if isinstance(ref, RefInt):
        assert new.dom is QuadraticIntRing(ref.ring.d)
        assert (new.a, new.b) == (ref.a, ref.b)
        assert type(new.a) is int and type(new.b) is int
    else:
        assert new.dom is QuadraticField(ref.field.d)
        assert new.dom.display_coords(new) == (ref.r, ref.s)
        assert type(new.a) is Fraction and type(new.b) is Fraction
    assert str(new) == str(ref)


def outcome(op):
    """op() or the exception class it raised."""
    try:
        return op()
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return type(exc)


def assert_agree(new_op, ref_op):
    """Where the reference returns a value, the new class returns it too."""
    ref = outcome(ref_op)
    if isinstance(ref, type):
        return
    new = new_op()
    if isinstance(ref, (RefInt, RefRat)):
        assert_same(new, ref)
    else:
        assert new == ref and type(new) is type(ref)


BINARY = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


class TestAgainstTheFormerClasses:
    @given(pairs_over_one_d(["ring", "ring"]), st.sampled_from(sorted(BINARY)))
    def test_ring_arithmetic(self, case, op):
        _, [(x, rx), (y, ry)] = case
        f = BINARY[op]
        assert_agree(lambda: f(x, y), lambda: f(rx, ry))
        assert_agree(lambda: f(x, 3), lambda: f(rx, 3))
        assert_agree(lambda: f(-2, y), lambda: f(-2, ry))

    @given(pairs_over_one_d(["field", "field"]), st.sampled_from(sorted(BINARY)))
    def test_field_arithmetic(self, case, op):
        _, [(x, rx), (y, ry)] = case
        f = BINARY[op]
        assert_agree(lambda: f(x, y), lambda: f(rx, ry))
        half = Fraction(1, 2)
        assert_agree(lambda: f(x, half), lambda: f(rx, half))
        assert_agree(lambda: f(3, y), lambda: f(3, ry))

    @given(pairs_over_one_d(["field", "ring"]), st.sampled_from(sorted(BINARY)))
    def test_mixed_arithmetic_lands_in_the_field(self, case, op):
        _, [(x, rx), (y, ry)] = case
        f = BINARY[op]
        assert_agree(lambda: f(x, y), lambda: f(rx, ry))
        assert_agree(lambda: f(y, x), lambda: f(ry, rx))

    @given(pairs_over_one_d(["ring", "field"]), st.integers(-4, 7))
    def test_powers(self, case, n):
        _, [(x, rx), (y, ry)] = case
        assert_agree(lambda: x ** n, lambda: rx ** n)
        assert_agree(lambda: y ** n, lambda: ry ** n)

    @given(pairs_over_one_d(["ring", "field"]))
    def test_conjugate_and_norm(self, case):
        _, [(x, rx), (y, ry)] = case
        assert_same(x.conjugate(), rx.conjugate())
        assert_same(y.conjugate(), ry.conjugate())
        assert x.norm() == rx.norm() and type(x.norm()) is int
        assert y.norm() == ry.norm()
        assert QuadraticIntRing(x.dom.d).norm(x) == rx.norm()

    @given(pairs_over_one_d(["ring", "ring", "field", "field"]))
    def test_equality_and_hash(self, case):
        d, pairs = case
        # the field's image of the first ring element equals it
        x, rx = pairs[0]
        image = QuadraticField(d).coerce(x)
        pairs.append((image, RefField(d).coerce(rx)))
        for new, ref in pairs:
            for new2, ref2 in pairs:
                assert (new == new2) == (ref == ref2)
                if new == new2:
                    assert hash(new) == hash(new2)
            for k in (0, 1, -3):
                assert (new == k) == (ref == k)
            if new.b == 0:          # a rational hashes as that rational
                assert hash(new) == hash(ref) == hash(new.a)

    @given(pairs_over_one_d(["ring", "field"]))
    def test_coerce_into_the_field_and_descend_into_the_ring(self, case):
        d, [(x, rx), (y, ry)] = case
        ring, field = QuadraticIntRing(d), QuadraticField(d)
        assert_same(field.coerce(x), RefField(d).coerce(rx))
        ref = RefRing(d).descend(ry)
        new = ring.descend(y)
        if ref is None:
            assert new is None
        else:
            assert_same(new, ref)
        # every ring element comes back from its field image
        assert_same(ring.descend(field.coerce(x)), rx)

    @given(pairs_over_one_d(["ring", "field"]))
    def test_printing(self, case):
        _, [(x, rx), (y, ry)] = case
        assert str(x) == str(rx)
        assert str(y) == str(ry)


class TestOrderDivisionAgainstTheReference:
    """QuadraticIntRing.divides_exact(x, y) is the reference quotient
    y/x in the field, descended into the order, or None where it does not
    descend; x = 0 raises ZeroDivisionError naming the order."""

    @given(st.sampled_from(DS), st.data())
    def test_divides_exact(self, d, data):
        ring, ref_ring, ref_field = QuadraticIntRing(d), RefRing(d), RefField(d)
        x, rx = data.draw(ring_pairs(d))
        if data.draw(st.booleans()):
            # an int divisor, coerced like any element
            n = data.draw(small_ints)
            x, rx = n, RefInt(ref_ring, n, 0)
        if data.draw(st.booleans()):
            # y = x*z, so that the quotient lies in the order
            z, rz = data.draw(ring_pairs(d))
            y, ry = ring.coerce(x) * z, rx * rz
        else:
            y, ry = data.draw(ring_pairs(d))
        if rx.norm() == 0:
            with pytest.raises(ZeroDivisionError) as info:
                ring.divides_exact(x, y)
            assert str(info.value) == f"division by zero in {ring.name}"
            return
        ref = ref_ring.descend(ref_field.coerce(ry) / ref_field.coerce(rx))
        new = ring.divides_exact(x, y)
        if ref is None:
            assert new is None
        else:
            assert_same(new, ref)


DOMAINS = [(kind, d) for d in DS for kind in ("ring", "field")]


def _domain(kind, d):
    return (QuadraticIntRing if kind == "ring" else QuadraticField)(d)


class TestIntDivisors:
    """An int divisor n takes the path of the element n + 0*w: the same
    quotient, the same None and the same ZeroDivisionError."""

    @pytest.mark.parametrize("kind, d", DOMAINS)
    @given(n=st.integers(-40, 40).filter(bool), data=st.data())
    def test_int_divides_as_its_element(self, kind, d, n, data):
        dom = _domain(kind, d)
        y, _ = data.draw((ring_pairs if kind == "ring" else field_pairs)(d))
        if data.draw(st.booleans()):
            y = y * n           # a multiple of n, so the quotient exists
        new = dom.divides_exact(n, y)
        assert new == dom.divides_exact(dom.coerce(n), y)
        # the quotient divides each coordinate on the common basis
        if kind == "field":
            assert (new.a, new.b) == (y.a / n, y.b / n)
            assert type(new.a) is Fraction and type(new.b) is Fraction
        elif y.a % n or y.b % n:
            assert new is None
        else:
            assert (new.a, new.b) == (y.a // n, y.b // n)
            assert type(new.a) is int and type(new.b) is int
            assert new.dom is dom

    @pytest.mark.parametrize("kind, d", DOMAINS)
    def test_zero_raises_naming_the_domain(self, kind, d):
        dom = _domain(kind, d)
        for zero in (0, dom.coerce(0)):
            with pytest.raises(ZeroDivisionError) as info:
                dom.divides_exact(zero, dom.one)
            assert str(info.value) == f"division by zero in {dom.name}"


def test_half_basis_field_norm_is_exact():
    # w = (1+sqrt(-3))/2 has norm 1, and w/3 has norm 1/9
    field = QuadraticField(-3)
    w = field.coerce(QuadraticIntRing(-3).element(0, 1))
    assert w.norm() == 1
    assert (w / 3).norm() == Fraction(1, 9)

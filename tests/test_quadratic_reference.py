"""QuadraticElement against the two element classes it replaced.

The order O_d used to have its own element class on the integral basis
(``QuadraticInt``) and the field Q(sqrt(d)) another on 1, sqrt(d)
(``QuadraticRat``).  Both are kept below, as they were, as the reference:
wherever the reference returns a value, the one class must return the
same value, in the same domain, printing the same way.

The arithmetic of two elements of one domain skips ``_join``.  The
``_join``-based methods it had before are kept below too, as a second
reference, which every operand pairing must match in value, domain and
error text.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polydecomp import (QuadraticElement, QuadraticField, QuadraticIntRing,
                        Tier, ZZ)
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


# ---------------------------------------------------------------------------
# the second reference: every operation through _join, and coerced operands
# ---------------------------------------------------------------------------

def join_join(x, other):
    """other as an element and the result's domain, for any other."""
    if isinstance(other, QuadraticElement):
        if other.dom is x.dom:
            return other, x.dom
        if other.dom.d != x.dom.d:
            raise TypeError("mixing elements over different d")
        return other, x.dom.q_algebra_hull()
    if other.__class__ is int:
        return x.dom._make(other, 0), x.dom
    return x.dom.coerce(other), x.dom


def join_numerators(x):
    a, b = Fraction(x.a), Fraction(x.b)
    s = math.lcm(a.denominator, b.denominator)
    return (s, a.numerator * (s // a.denominator),
            b.numerator * (s // b.denominator))


def join_add(x, other):
    o, dom = join_join(x, other)
    return QuadraticElement(dom, x.a + o.a, x.b + o.b)


def join_sub(x, other):
    o, dom = join_join(x, other)
    return QuadraticElement(dom, x.a - o.a, x.b - o.b)


def join_mul(x, other):
    o, dom = join_join(x, other)
    in_order = dom.tier is Tier.RING
    if in_order:
        a, b, c, e = x.a, x.b, o.a, o.b
    else:
        s, a, b = join_numerators(x)
        u, c, e = join_numerators(o)
    be = b * e
    p, q = a * c + dom.q * be, a * e + b * c + dom.t * be
    if in_order:
        return QuadraticElement(dom, p, q)
    s *= u
    return QuadraticElement(dom, Fraction(p, s), Fraction(q, s))


def join_eq(x, other):
    if isinstance(other, QuadraticElement):
        return x.dom.d == other.dom.d and x.a == other.a and x.b == other.b
    if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
        return x.b == 0 and x.a == other
    return x is other       # neither side compares: Python's fallback


def join_divides_exact(ring, x, y):
    y = ring.coerce(y)
    x = ring.coerce(x)
    at, qb = x.a + ring.t * x.b, ring.q * x.b
    n, za, zb = x.a * at - qb * x.b, y.a * at - qb * y.b, y.b * x.a - y.a * x.b
    if n == 0:
        raise ZeroDivisionError(f"division by zero in {ring.name}")
    qa, ra = divmod(za, n)
    if ra:
        return None
    qb, rb = divmod(zb, n)
    return None if rb else QuadraticElement(ring, qa, qb)


def join_norm(ring, x):
    return ring.coerce(x).norm()


def dispatch(method, reflected, x, y):
    """x op y by Python's rules, where only an element implements op, and
    method(element, other) is the element's op; reflected(element, other)
    is its reflected op, other op element."""
    if isinstance(x, QuadraticElement):
        return method(x, y)
    return reflected(y, x)


JOIN_OPS = {
    "+": (lambda x, y: x + y, lambda x, y: dispatch(join_add, join_add, x, y)),
    "-": (lambda x, y: x - y,
          lambda x, y: dispatch(join_sub, lambda e, o: join_add(-e, o), x, y)),
    "*": (lambda x, y: x * y, lambda x, y: dispatch(join_mul, join_mul, x, y)),
    "==": (lambda x, y: x == y,
           lambda x, y: dispatch(join_eq, join_eq, x, y)),
}


def result(op):
    """("value", value, its domain, its coordinate types) or ("error",
    class, text)."""
    try:
        v = op()
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return "error", type(exc), str(exc)
    if isinstance(v, QuadraticElement):
        return "value", v, v.dom, type(v.a), type(v.b)
    return "value", v, type(v)


#: How an operand of each kind is built from one drawn pair of small
#: Fractions (r, s), for the order and field over d, and another d.
KINDS = {
    "order": lambda d, r, s: QuadraticIntRing(d).element(r.numerator,
                                                         s.numerator),
    "field": lambda d, r, s: QuadraticField(d).element(r, s),
    "int": lambda d, r, s: r.numerator,
    "fraction": lambda d, r, s: r,
    "bool": lambda d, r, s: r.numerator > 0,
    "order, other d": lambda d, r, s: QuadraticIntRing(
        -5 if d != -5 else -6).element(r.numerator, s.numerator),
    "field, other d": lambda d, r, s: QuadraticField(
        -5 if d != -5 else -6).element(r, s),
}

PAIRINGS = [("order", "order"), ("field", "field"), ("order", "field"),
            ("field", "order")]
PAIRINGS += [(elem, other) for elem in ("order", "field")
             for other in ("int", "fraction", "bool", "order, other d",
                           "field, other d")]
PAIRINGS += [(other, elem) for elem in ("order", "field")
             for other in ("int", "fraction")]

#: (r, s) per operand: small Fractions, integers one time in six
coordinates = st.tuples(small_fracs, small_fracs)


class TestAgainstTheJoinPath:
    """Every pairing of + - * and == gives the value, the domain and the
    error text of the methods that joined every operand first, for every
    d in DS; so do the order's divides_exact and norm."""

    @pytest.mark.parametrize("left, right", PAIRINGS)
    @given(coordinates, coordinates)
    def test_arithmetic_and_equality(self, left, right, xs, ys):
        for d in DS:
            x, y = KINDS[left](d, *xs), KINDS[right](d, *ys)
            for new_op, join_op in JOIN_OPS.values():
                assert result(lambda: new_op(x, y)) \
                    == result(lambda: join_op(x, y))

    @pytest.mark.parametrize("kinds", [
        ("order", "order"), ("int", "order"), ("order", "int"),
        ("int", "int"), ("field", "order"), ("order", "field"),
        ("fraction", "order"), ("order", "order, other d")])
    @given(coordinates, coordinates, st.booleans())
    def test_order_divides_exact(self, kinds, xs, ys, multiple):
        for d in DS:
            ring = QuadraticIntRing(d)
            x, y = KINDS[kinds[0]](d, *xs), KINDS[kinds[1]](d, *ys)
            if multiple and kinds == ("order", "order"):
                y = x * y           # a quotient that exists
            assert result(lambda: ring.divides_exact(x, y)) \
                == result(lambda: join_divides_exact(ring, x, y))

    @pytest.mark.parametrize("kind", ["order", "int", "field", "fraction",
                                      "bool", "order, other d"])
    @given(coordinates)
    def test_order_norm(self, kind, xs):
        for d in DS:
            ring = QuadraticIntRing(d)
            x = KINDS[kind](d, *xs)
            assert result(lambda: ring.norm(x)) \
                == result(lambda: join_norm(ring, x))

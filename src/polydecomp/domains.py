"""Exact coefficient domains and decidable subring membership.

Provides arbitrary-precision integers and rationals, imaginary-quadratic
orders O_d and their fraction fields Q(sqrt(d)), and polynomial coefficient
domains Z[t], Q[t] and Z[t^2, t^3], the integer polynomials in t with no
t^1 term.

Every domain object exposes at least ``name``, ``tier``, ``zero``, ``one``,
``coerce``, ``is_element``, ``is_unit``, ``descend``, ``format_element``,
``divides_exact``, ``symbols``, the expression symbols it binds as {name:
(value in the hull, bits a factor of it counts)}, and
``enumerates_divisors``, true where ``divisors_up_to_associates`` lists
divisors (Z and the orders O_d).  Each ring is one object, built once per
constructor arguments, so domains compare by identity, and a copy or a
pickle round trip of a domain returns that object (``__reduce__``).

``coerce(v)`` returns an element of its own domain unchanged, as the same
object, and converts anything else to the domain's element type or
raises TypeError: over Q an int or a Fraction subclass becomes an exact
Fraction, and bool and float are refused.  Every Polynomial coerces its
coefficients, so this fast path is what lets arithmetic over Q keep the
Fractions it already holds.

``divides_exact(x, y)`` is the one exact division: y/x when that lies in
the domain, else None; ZeroDivisionError naming the domain for x = 0,
an int or the domain's zero.  A Q-algebra never answers None for a
nonzero integer x, nor a field for any nonzero x.
Z[t], Q[t] and Z[t^2, t^3] divide only by constants, coefficientwise.

Every Q-algebra A here is R[1/n : n = 1, 2, ...] for an integrally closed
ring R inside it, its ``integral_ring``: Z in Q, O_d in Q(sqrt(d)), Z[t]
in Q[t].  A answers only element questions: ``integral_ring``;
``denominator(x)``, the least positive integer s with s*x in R; and
``to_integral(x, s)``, s*x as an element of R for s any multiple of that
denominator.  ``divides_exact(s, X)`` maps X in R back to X/s in A.
Monic decomposition lifts f onto R itself (docs/math_notes.md, section 1).

O_d and Q(sqrt(d)) share one element class, :class:`QuadraticElement`,
on the integral basis 1, w of O_d, with int coordinates in the order and
Fraction coordinates in the field.  Each domain names its basis by
t = Tr(w) and q = -N(w), so that w^2 = t*w + q: (1, (d-1)/4) for
w = (1+sqrt(d))/2, d = 1 (mod 4), else (0, d) for w = sqrt(d).  Every
product, conjugate, norm and quotient reads t and q and runs on integers,
with one Fraction per field coordinate at the end (docs/math_notes.md,
"Arithmetic on the basis 1, w").  Field values still take, print and
serialise sqrt(d) coordinates: ``QuadraticField(d).element(r, s)`` is
r + s*sqrt(d).
"""

from __future__ import annotations

import math
import operator
from enum import IntEnum
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Optional

from .poly import Polynomial, power


class Tier(IntEnum):
    """What a coefficient domain supports, beyond ring arithmetic.

    RING: + - * only.  QALGEBRA: also exact division by nonzero integers.
    FIELD: also exact division by arbitrary nonzero elements.
    """

    RING = 0
    QALGEBRA = 1
    FIELD = 2


class CapabilityError(TypeError):
    """An operation needs more arithmetic than the domain offers."""


def require_tier(domain: Any, tier: Tier, operation: str) -> None:
    if domain.tier < tier:
        raise CapabilityError(
            f"{operation} needs a {tier.name} coefficient domain, "
            f"but {domain.name} is only a {Tier(domain.tier).name}")


# ---------------------------------------------------------------------------
# rational integers and rationals
# ---------------------------------------------------------------------------

def _decimal(x: Any) -> str:
    """str(x) for an int or a Fraction, past CPython's 4300-digit cap.

    Long integers are split in two by a power of ten about half their
    length, and each half is converted on its own.
    """
    if x.__class__ is int and x.bit_length() <= 4096:
        return str(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return _decimal(x.numerator)
        return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"
    if x < 0:
        return "-" + _decimal(-x)
    if x.bit_length() <= 4096:          # at most 1234 digits
        return str(x)
    k = x.bit_length() * 3 // 20        # about half of its 0.301*bits digits
    high, low = divmod(x, 10 ** k)
    return _decimal(high) + _decimal(low).zfill(k)


#: Trial divisors for primality: the primes below 100.
_SMALL_PRIMES = tuple(p for p in range(2, 100)
                      if all(p % q for q in range(2, p)))

#: Miller-Rabin to the first 13 prime bases is exact below this bound
#: (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
#: Math. Comp. 86, 2017).
_MR_BASES = _SMALL_PRIMES[:13]
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n >= 2 is prime.

    Trial division by the primes below 100, then deterministic
    Miller-Rabin.  A witness proves n composite at any size; a strong
    probable prime at or above the bound raises ValueError.
    """
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(
            f"primality is decided only below {_MR_EXACT_BELOW}; "
            f"{_decimal(n)} is a strong probable prime to the first 13 "
            f"prime bases")
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of a composite n with no prime factor below 100.

    Pollard's rho (BIT 15, 1975) with Brent's cycle search: the
    differences are multiplied in batches of 128 per gcd, and a batch
    that overshoots to gcd n is replayed one difference at a time.  A
    run that still ends at n starts over with the next constant c.
    """
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _factor(n: int) -> dict[int, int]:
    """The factorization {p: e} of n >= 1, primes ascending.

    Trial division by the primes below 100, then Pollard-Brent rho on
    every composite cofactor.  Exact below _MR_EXACT_BELOW, where
    :func:`_is_prime` is; callers bound n below it.
    """
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    # what is left has no prime factor below 100, so below 101^2 it is
    # 1 or a prime
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if m < 101 * 101 or _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho_factor(m)
            todo += (f, m // f)
    return dict(sorted(out.items()))


def _divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1 in ascending order, from its
    factorization."""
    divs = [1]
    for p, e in _factor(n).items():
        divs = [d * p ** i for i in range(e + 1) for d in divs]
    divs.sort()
    return divs


class IntegerRing:
    """The rational integers Z, with the unit group {1, -1}."""

    name = "Z"
    tier = Tier.RING
    enumerates_divisors = True
    symbols: dict = {}
    zero = 0
    one = 1

    def coerce(self, v: Any) -> int:
        if v.__class__ is int:
            return v
        if isinstance(v, bool):
            raise TypeError("bool is not an integer coefficient")
        if isinstance(v, int):
            return v
        if isinstance(v, Fraction) and v.denominator == 1:
            return v.numerator
        raise TypeError(f"cannot interpret {v!r} as an integer")

    def is_element(self, v: Any) -> bool:
        return isinstance(v, int) and not isinstance(v, bool)

    def format_element(self, x: int) -> str:
        return _decimal(x)

    def descend(self, x: Any) -> Optional[int]:
        """x as an integer, or None when it is not one."""
        if self.is_element(x):
            return x
        if isinstance(x, Fraction) and x.denominator == 1:
            return x.numerator
        return None

    # arithmetic the decomposition machinery asks rings for

    def norm(self, x: int) -> int:
        return abs(x)

    def is_unit(self, x: int) -> bool:
        return x == 1 or x == -1

    def are_associates(self, x: int, y: int) -> bool:
        return abs(x) == abs(y)

    def divides_exact(self, x: int, y: int) -> Optional[int]:
        if x.__class__ is not int or y.__class__ is not int:
            x, y = self.coerce(x), self.coerce(y)   # refuses a bool
        if x == 0:
            raise ZeroDivisionError("division by zero in Z")
        q, r = divmod(y, x)
        return q if r == 0 else None

    def elements_of_norm(self, k: int) -> list[int]:
        if k < 0:
            return []
        if k == 0:
            return [0]
        return [-k, k]

    def divisors_up_to_associates(self, x: int) -> list[int]:
        if x == 0:
            raise ValueError("zero has no divisor list")
        if abs(x) >= _MR_EXACT_BELOW:
            raise ValueError(
                f"divisor search bound exceeded: |{_decimal(x)}| >= "
                f"{_MR_EXACT_BELOW}, below which factoring is exact")
        return _divisors(abs(x))

    def is_irreducible(self, x: int) -> bool:
        if x == 0 or self.is_unit(x):
            raise ValueError("irreducibility is undefined for zero and units")
        return _is_prime(abs(x))

    def q_algebra_hull(self) -> "RationalField":
        return QQ

    fraction_field = q_algebra_hull

    def __reduce__(self) -> str:
        return "ZZ"

    def __repr__(self) -> str:
        return "ZZ"


class RationalField:
    """The rationals Q, backed by fractions.Fraction."""

    name = "Q"
    tier = Tier.FIELD
    enumerates_divisors = False
    symbols: dict = {}
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v: Any) -> Fraction:
        if v.__class__ is Fraction:
            return v
        if isinstance(v, bool):
            raise TypeError("bool is not a rational coefficient")
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise TypeError(f"cannot interpret {v!r} as a rational")

    def is_element(self, v: Any) -> bool:
        return isinstance(v, (int, Fraction)) and not isinstance(v, bool)

    def format_element(self, x: Fraction) -> str:
        return _decimal(x)

    def descend(self, x: Any) -> Optional[Any]:
        return x if self.is_element(x) else None

    def is_unit(self, x: Fraction) -> bool:
        return x != 0

    def divides_exact(self, x: Fraction, y: Fraction) -> Fraction:
        """y / x, never None: every nonzero rational is a unit."""
        try:
            if x.__class__ is int and y.__class__ is int:
                return Fraction(y, x)   # y / x would be a float
            if x.__class__ is bool or y.__class__ is bool:
                raise TypeError("bool is not a rational coefficient")
            return y / x
        except ZeroDivisionError:
            raise ZeroDivisionError(f"division by zero in {self.name}") from None

    @property
    def integral_ring(self) -> IntegerRing:
        return ZZ

    #: x -> x.denominator, with no Python frame of its own: the scale
    #: walk of monic_decompose asks it once per coefficient
    denominator = operator.attrgetter("denominator")

    def to_integral(self, x: Fraction, s: int) -> int:
        """s*x as an integer, for s a multiple of x's denominator."""
        return x.numerator * (s // x.denominator)

    def q_algebra_hull(self) -> "RationalField":
        return self

    def __reduce__(self) -> str:
        return "QQ"

    def __repr__(self) -> str:
        return "QQ"


ZZ = IntegerRing()
QQ = RationalField()


# ---------------------------------------------------------------------------
# imaginary quadratic orders and fields
# ---------------------------------------------------------------------------

#: Largest norm whose divisors an order searches: each norm k up to
#: sqrt(norm) costs a scan of up to sqrt(4k/|d|) steps.
_DIVISOR_BOUND = 10 ** 15


def _check_d(d: int) -> None:
    """Raise unless d < 0, |d| < _MR_EXACT_BELOW and d is squarefree.

    Squarefreeness is read off the factorization of |d|, which is exact
    only below that bound, so a larger |d| is rejected before any
    factoring.
    """
    if d >= 0:
        raise ValueError(
            f"d = {_decimal(d)}: only imaginary quadratic rings are supported "
            "(the norm must be positive definite for divisor searches)")
    if -d >= _MR_EXACT_BELOW:
        raise ValueError(f"d = {_decimal(d)}: |d| >= {_MR_EXACT_BELOW} is not "
                         "supported (squarefreeness is decided by "
                         "factoring, exact only below it)")
    if any(e > 1 for e in _factor(-d).values()):
        raise ValueError(f"d = {d} is not squarefree")


def _numerators(x: "QuadraticElement") -> tuple[int, int, int]:
    """(s, A, B) with x = (A + B*w)/s, s the lcm of the coordinate
    denominators of x (1 for int coordinates)."""
    a, b = x.a, x.b
    s, sb = a.denominator, b.denominator
    if s == sb:
        return s, a.numerator, b.numerator
    s = math.lcm(s, sb)
    return s, a.numerator * (s // a.denominator), b.numerator * (s // sb)


def _times_conjugate(dom: Any, a: int, b: int, c: int, e: int) -> tuple:
    """(N(x), A, B) with y*conj(x) = A + B*w, for x = a + b*w and
    y = c + e*w in integer coordinates; y/x = (A + B*w)/N(x)."""
    at, qb = a + dom.t * b, dom.q * b       # conj(x) = at - b*w
    return a * at - qb * b, c * at - qb * e, e * a - c * b


class QuadraticElement:
    """An element a + b*w of an imaginary quadratic order O_d or of its
    field Q(sqrt(d)).

    Both domains share the integral basis 1, w of O_d: w = sqrt(d), or
    (1+sqrt(d))/2 when d = 1 (mod 4).  The coordinates are ints in the
    order and Fractions in the field, so a field element lies in the
    order iff both of its coordinates are integers, and equal elements of
    the two domains compare and hash alike.  Mixing the two gives a field
    element.  One rule drives the arithmetic, w^2 = t*w + q with the
    domain's t = Tr(w) and q = -N(w): (a + b*w)(c + e*w) is
    (a*c + q*b*e) + (a*e + b*c + t*b*e)*w, conj(a + b*w) is
    (a + t*b) - b*w and N(a + b*w) is a*(a + t*b) - q*b^2.  A field
    product runs that formula on integer numerators, one Fraction per
    coordinate, and ``x / y`` is the field's ``divides_exact(y, x)``.
    Two elements of one domain combine as they are; any other operand
    (an int, a Fraction, the other domain over the same d) goes through
    ``_join`` first.
    """

    __slots__ = ("dom", "a", "b")

    def __init__(self, dom: "_QuadraticDomain", a: Any, b: Any):
        self.dom = dom
        self.a = a
        self.b = b

    def __reduce__(self) -> tuple:
        # __slots__ alone cannot be pickled at protocols 0 and 1
        return QuadraticElement, (self.dom, self.a, self.b)

    def _join(self, other: Any) -> tuple["QuadraticElement", Any]:
        """other as an element, and the domain the result lives in, for
        any other than an element of self's own domain: an int, a
        Fraction, or the other domain over the same d."""
        if isinstance(other, QuadraticElement):
            if other.dom.d != self.dom.d:
                raise TypeError("mixing elements over different d")
            return other, self.dom.q_algebra_hull()
        if other.__class__ is int:          # not bool, which coerce refuses
            return self.dom._make(other, 0), self.dom
        return self.dom.coerce(other), self.dom

    def __add__(self, other: Any) -> "QuadraticElement":
        dom = self.dom
        if other.__class__ is not QuadraticElement or other.dom is not dom:
            other, dom = self._join(other)
        return QuadraticElement(dom, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: Any) -> "QuadraticElement":
        dom = self.dom
        if other.__class__ is not QuadraticElement or other.dom is not dom:
            other, dom = self._join(other)
        return QuadraticElement(dom, self.a - other.a, self.b - other.b)

    def __rsub__(self, other: Any) -> "QuadraticElement":
        return -self + other

    def __neg__(self) -> "QuadraticElement":
        return QuadraticElement(self.dom, -self.a, -self.b)

    def __mul__(self, other: Any) -> "QuadraticElement":
        dom = self.dom
        if other.__class__ is not QuadraticElement or other.dom is not dom:
            other, dom = self._join(other)
        in_order = dom.in_order
        if in_order:
            a, b, c, e = self.a, self.b, other.a, other.b
        else:
            # the same formula on integer numerators, then one Fraction each
            s, a, b = _numerators(self)
            u, c, e = _numerators(other)
        be = b * e
        x, y = a * c + dom.q * be, a * e + b * c + dom.t * be
        if in_order:
            return QuadraticElement(dom, x, y)
        s *= u
        return QuadraticElement(dom, Fraction(x, s), Fraction(y, s))

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "QuadraticElement":
        return self.dom.q_algebra_hull().divides_exact(other, self)

    def __pow__(self, n: int) -> "QuadraticElement":
        if n < 0:
            return self.dom.q_algebra_hull().one / power(self, -n, self.dom.one)
        return power(self, n, self.dom.one)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadraticElement):
            return (self.dom.d == other.dom.d and self.a == other.a
                    and self.b == other.b)
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        # Fraction(n) hashes as n, so ring and field elements agree
        if self.b == 0:
            return hash(self.a)
        return hash((self.dom.d, self.a, self.b))

    def conjugate(self) -> "QuadraticElement":
        # conj(w) = t - w
        return QuadraticElement(self.dom, self.a + self.dom.t * self.b,
                                -self.b)

    def norm(self) -> Any:
        a, b = self.a, self.b
        return a * (a + self.dom.t * b) - self.dom.q * b * b

    def __str__(self) -> str:
        return self.dom.format_element(self)

    def __repr__(self) -> str:
        return f"QuadraticElement({self.dom!r}, {self.a!r}, {self.b!r})"


#: The one instance of each quadratic domain class per d.
_QUADRATIC_DOMAINS: dict = {}


class _QuadraticDomain:
    """What an order O_d and its field Q(sqrt(d)) share: one instance per
    d, elements on the common basis, coercion and descent.

    Embedding into the field changes the coordinate type, and descent
    into the order is an integrality check (``_make``).
    """

    def __new__(cls, d: int):
        self = _QUADRATIC_DOMAINS.get((cls, d))
        if self is None:
            if not any(seen == d for _, seen in _QUADRATIC_DOMAINS):
                _check_d(d)         # once per d, for the order and field
            self = _QUADRATIC_DOMAINS[cls, d] = super().__new__(cls)
            self.d = d
            self.half_basis = (d % 4 == 1)
            # w^2 = t*w + q: t = Tr(w) and q = -N(w)
            self.t, self.q = (1, (d - 1) // 4) if self.half_basis else (0, d)
            # int coordinates: products skip the Fraction numerators
            self.in_order = cls.tier is Tier.RING
            self.name = self._name()
            self.zero = self._make(0, 0)
            self.one = self._make(1, 0)
            if self.in_order:
                self._units = tuple(self.elements_of_norm(1))
        return self

    def descend(self, x: Any) -> Optional[QuadraticElement]:
        """x as an element of this domain, or None when it is not one."""
        if isinstance(x, QuadraticElement):
            if x.dom is self:
                return x
            return self._make(x.a, x.b) if x.dom.d == self.d else None
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return self._make(x, 0)
        return None

    def coerce(self, v: Any) -> QuadraticElement:
        if v.__class__ is QuadraticElement and v.dom is self:
            return v
        x = self.descend(v)
        if x is None:
            raise TypeError(f"cannot interpret {v!r} in {self.name}")
        return x

    def is_element(self, v: Any) -> bool:
        return isinstance(v, QuadraticElement) and v.dom is self

    def format_element(self, x: QuadraticElement) -> str:
        return _format_two_coords(*self.display_coords(x))

    def q_algebra_hull(self) -> "QuadraticField":
        return QuadraticField(self.d)

    fraction_field = q_algebra_hull

    @cached_property
    def symbols(self) -> dict:
        """w (sqrt(d) in the field) and about log2|d| + 1 bits a factor."""
        w = self.q_algebra_hull().coerce(self.element(0, 1))
        return {"w": (w, abs(self.d).bit_length() + 1)}

    def __reduce__(self) -> tuple:
        return (type(self), (self.d,))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.d})"


class QuadraticIntRing(_QuadraticDomain):
    """The imaginary quadratic order Z[sqrt(d)] or Z[(1+sqrt(d))/2]."""

    tier = Tier.RING
    enumerates_divisors = True

    def _name(self) -> str:
        return f"O({self.d})" if self.half_basis else f"Z[sqrt({self.d})]"

    def _make(self, a: Any, b: Any) -> Optional[QuadraticElement]:
        if a.denominator == 1 and b.denominator == 1:
            return QuadraticElement(self, a.numerator, b.numerator)
        return None

    def element(self, a: int, b: int = 0) -> QuadraticElement:
        """a + b*w."""
        return QuadraticElement(self, ZZ.coerce(a), ZZ.coerce(b))

    def display_coords(self, x: QuadraticElement) -> tuple[int, int]:
        return x.a, x.b

    def norm(self, x: QuadraticElement) -> int:
        if x.__class__ is not QuadraticElement or x.dom is not self:
            x = self.coerce(x)
        return x.norm()

    def divides_exact(self, x: QuadraticElement,
                      y: QuadraticElement) -> Optional[QuadraticElement]:
        """y / x when the quotient lies in the ring, else None.  Both are
        coerced, an int x to x + 0*w; norm(x) and y*conj(x) in integer
        coordinates give the quotient, exact when divmod leaves no
        remainder."""
        if y.__class__ is not QuadraticElement or y.dom is not self:
            y = self.coerce(y)
        if x.__class__ is not QuadraticElement or x.dom is not self:
            x = self.coerce(x)
        n, za, zb = _times_conjugate(self, x.a, x.b, y.a, y.b)
        if n == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        qa, ra = divmod(za, n)
        if ra:
            return None
        qb, rb = divmod(zb, n)
        return None if rb else QuadraticElement(self, qa, qb)

    def units(self) -> tuple[QuadraticElement, ...]:
        return self._units

    def is_unit(self, x: QuadraticElement) -> bool:
        x = self.coerce(x)
        return x.norm() == 1

    def are_associates(self, x: QuadraticElement, y: QuadraticElement) -> bool:
        x = self.coerce(x)
        y = self.coerce(y)
        if x.norm() != y.norm():
            return False
        return any(x * u == y for u in self.units())

    def associate_representative(self, x: QuadraticElement) -> QuadraticElement:
        """Canonical choice among the unit multiples of x.

        The representative is the unit multiple whose coordinate pair
        (a, b) is largest; this is deterministic and picks the positive
        element for rational integers.
        """
        x = self.coerce(x)
        units = self._units
        if len(units) == 2:                     # the units are 1 and -1
            return x if x.a > 0 or (x.a == 0 and x.b >= 0) else -x
        return max((x * u for u in units), key=lambda z: (z.a, z.b))

    def elements_of_norm(self, k: int) -> list[QuadraticElement]:
        """All ring elements of norm exactly k (complete since d < 0).

        Both bases share one norm form: 4*norm(a + b*w) is
        (2a + t*b)^2 + D*b^2, with D = -(t^2 + 4q) the absolute
        discriminant: |d| for w = (1+sqrt(d))/2 and 4|d| for w = sqrt(d).
        """
        if k < 0:
            return []
        if k == 0:
            return [self.zero]
        t, D = self.t, -(self.t ** 2 + 4 * self.q)
        found = []
        bmax = math.isqrt(4 * k // D)
        # b and -b leave the same rest and the same parity, so each
        # square root serves both
        for b in range(bmax + 1):
            rest = 4 * k - D * b * b
            e = math.isqrt(rest)
            if e * e != rest or (e - t * b) % 2 != 0:
                continue
            for s in (b, -b) if b else (0,):
                found.append(QuadraticElement(self, (e - t * s) // 2, s))
                if e != 0:
                    found.append(
                        QuadraticElement(self, (-e - t * s) // 2, s))
        found.sort(key=lambda z: (z.a, z.b))
        return found

    def _divisor_pairs(self, x: QuadraticElement):
        """(norm(u), u, x/u) for every divisor u of x with
        norm(u)^2 <= norm(x) that is its own associate representative, by
        ascending norm(u), for x of norm at most _DIVISOR_BOUND.

        Every divisor of x is associate to some u or some x/u: the two
        norms multiply to norm(x), so one of them is at most its square
        root.  The unit multiples eps*u and x/(eps*u) of a pair fall in
        the same two classes, so one division per class of u suffices.
        Where the units are 1 and -1, u is the representative of its
        class when (u.a, u.b) > (0, 0), a sign test.
        """
        n = x.norm()
        if n > _DIVISOR_BOUND:
            raise ValueError(
                f"divisor search bound exceeded: norm {_decimal(n)} > "
                f"{_DIVISOR_BOUND}")
        plus_minus_one = len(self._units) == 2
        representative = self.associate_representative
        for k in _divisors(n):
            if k * k > n:
                return
            for u in self.elements_of_norm(k):
                if plus_minus_one:
                    if u.a < 0 or (u.a == 0 and u.b < 0):
                        continue
                elif representative(u) != u:
                    # != and not `is not`: for d = -1, -3 the
                    # representative is a new object
                    continue
                quotient = self.divides_exact(u, x)
                if quotient is not None:
                    yield k, u, quotient

    def divisors_up_to_associates(self, x: QuadraticElement) -> list[QuadraticElement]:
        """One representative per associate class of divisors of x,
        sorted by norm, then coordinates.

        Includes the unit class and the class of x itself.  The norm
        equation is solved only for norms up to sqrt(norm(x)), and x is
        divided once per class of solutions; each u that divides x brings
        the class of x/u as well.  Each u is already its class's
        representative, so only x/u is brought to its own; the classes
        are keyed by (norm, a, b), with the norms k and norm(x)/k known.
        """
        x = self.coerce(x)
        n = x.norm()
        if n == 0:
            raise ValueError("zero has no divisor list")
        representative = self.associate_representative
        reps = {}
        for k, u, quotient in self._divisor_pairs(x):
            reps[(k, u.a, u.b)] = u
            rep = representative(quotient)
            reps[(n // k, rep.a, rep.b)] = rep
        return [reps[key] for key in sorted(reps)]

    def is_irreducible(self, x: QuadraticElement) -> bool:
        """True when the only divisors of x are units and associates of x,
        that is, when no divisor has norm in (1, sqrt(norm(x))]."""
        x = self.coerce(x)
        if x.norm() <= 1:
            raise ValueError("irreducibility is undefined for zero and units")
        return all(k == 1 for k, _, _ in self._divisor_pairs(x))


class QuadraticField(_QuadraticDomain):
    """The imaginary quadratic field Q(sqrt(d)).

    Its public coordinates are those of sqrt(d): ``element(r, s)`` is
    r + s*sqrt(d), and values print and serialise as r and s.
    """

    tier = Tier.FIELD
    enumerates_divisors = False

    def _name(self) -> str:
        return f"Q(sqrt({self.d}))"

    def _make(self, a: Any, b: Any) -> QuadraticElement:
        return QuadraticElement(self,
                                a if a.__class__ is Fraction else Fraction(a),
                                b if b.__class__ is Fraction else Fraction(b))

    def element(self, r: Any, s: Any = 0) -> QuadraticElement:
        """r + s*sqrt(d)."""
        r, s = Fraction(r), Fraction(s)
        # r + s*sqrt(d) = (r - s) + 2s*(1+sqrt(d))/2 in the half basis
        return self._make(r - s, 2 * s) if self.half_basis else self._make(r, s)

    def display_coords(self, x: QuadraticElement) -> tuple[Fraction, Fraction]:
        """(r, s) with x = r + s*sqrt(d)."""
        if self.half_basis:
            # x = (A + B*w)/u = (2A + B)/(2u) + B/(2u)*sqrt(d)
            u, a, b = _numerators(x)
            return Fraction(2 * a + b, 2 * u), Fraction(b, 2 * u)
        return x.a, x.b

    def is_unit(self, x: QuadraticElement) -> bool:
        return x != self.zero

    def divides_exact(self, x: QuadraticElement,
                      y: QuadraticElement) -> QuadraticElement:
        """y / x, never None.  With x = X/s_x and y = Y/s_y over integer
        numerators, y/x is s_x*Y*conj(X) / (s_y*N(X)), one Fraction per
        coordinate.  An int x is coerced to x + 0*w, and elements of O_d
        are read as they are."""
        if y.__class__ is not QuadraticElement or y.dom.d != self.d:
            y = self.coerce(y)
        if x.__class__ is not QuadraticElement or x.dom.d != self.d:
            x = self.coerce(x)
        try:
            sx, a, b = _numerators(x)
            sy, c, e = _numerators(y)
            n, za, zb = _times_conjugate(self, a, b, c, e)
            n *= sy
            return QuadraticElement(self, Fraction(sx * za, n),
                                    Fraction(sx * zb, n))
        except ZeroDivisionError:
            raise ZeroDivisionError(f"division by zero in {self.name}") from None

    @cached_property
    def integral_ring(self) -> QuadraticIntRing:
        """O_d: the order on the same basis, maximal because d is
        squarefree and w is (1+sqrt(d))/2 when d = 1 (mod 4)."""
        return QuadraticIntRing(self.d)

    def denominator(self, x: QuadraticElement) -> int:
        return math.lcm(x.a.denominator, x.b.denominator)

    def to_integral(self, x: QuadraticElement, s: int) -> QuadraticElement:
        """s*x in O_d, for s a multiple of x's denominator."""
        u, a, b = _numerators(x)
        return QuadraticElement(self.integral_ring, a * (s // u), b * (s // u))


def _format_two_coords(first: Any, second: Any) -> str:
    """Render first + second*w compatibly with the expression grammar."""
    if second == 0:
        return _decimal(first)
    if second == 1:
        wpart = "w"
    elif second == -1:
        wpart = "-w"
    else:
        wpart = f"{_decimal(second)}*w"
    if first == 0:
        return wpart
    return _decimal(first) + ("" if wpart[0] == "-" else "+") + wpart


# ---------------------------------------------------------------------------
# polynomials in t as a coefficient domain
# ---------------------------------------------------------------------------

#: The one instance of each polynomial domain class per base and variable.
_POLYNOMIAL_DOMAINS: dict = {}


class PolynomialDomain:
    """Polynomials in one indeterminate used as coefficients, one instance
    per class, base and variable.  Z[t] is a plain ring; Q[t] divides
    exactly by nonzero integers (coefficientwise): tier QALGEBRA.
    """

    enumerates_divisors = False

    def __new__(cls, base: Any, var: str):
        self = _POLYNOMIAL_DOMAINS.get((cls, base, var))
        if self is None:
            self = _POLYNOMIAL_DOMAINS[cls, base, var] = super().__new__(cls)
            self.base = base
            self.var = var
            self.name = self._name()
            self.tier = min(base.tier, Tier.QALGEBRA)
            self.zero = Polynomial.zero(base, var)
            self.one = Polynomial.constant(base, base.one, var)
        return self

    def _name(self) -> str:
        return f"{self.base.name}[{self.var}]"

    def coerce(self, v: Any) -> Polynomial:
        if isinstance(v, Polynomial):
            if v.var != self.var:
                raise TypeError(f"expected a polynomial in {self.var}, got {v.var}")
            if v.domain is self.base:
                return v
            return v.map_coefficients(self.base.coerce, domain=self.base)
        return Polynomial.constant(self.base, self.base.coerce(v), self.var)

    def is_element(self, v: Any) -> bool:
        return (isinstance(v, Polynomial) and v.domain is self.base
                and v.var == self.var)

    def element(self, coeffs: Iterable[Any]) -> Polynomial:
        return self.coerce(Polynomial(self.base, coeffs, self.var))

    def format_element(self, p: Polynomial) -> str:
        return str(p)

    def descend(self, x: Any) -> Optional[Polynomial]:
        """x with every t-coefficient descended into the base, or None."""
        if not isinstance(x, Polynomial) or x.var != self.var:
            return None
        return descend_poly(x, self.base)

    def divides_exact(self, x: Any, p: Polynomial) -> Optional[Polynomial]:
        """p / x for a nonzero constant x, a base element or a degree-0
        polynomial: every coefficient divided by the base, or None when
        the base refuses one.  A non-constant x raises ValueError."""
        if x.__class__ is Polynomial:
            if x.degree > 0:
                raise ValueError(f"{self.name} divides only by constants, "
                                 f"not by {x}")
            x = x.coefficient(0)
        if x == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        if p.__class__ is not Polynomial:
            p = self.coerce(p)
        out = [self.base.divides_exact(x, c) for c in p.coeffs]
        return None if None in out else Polynomial(self.base, out, self.var)

    @cached_property
    def integral_ring(self) -> "PolynomialDomain":
        """Polynomials over the integral ring of the base: Z[t] for Q[t]."""
        return PolynomialDomain(self.base.integral_ring, self.var)

    def denominator(self, p: Polynomial) -> int:
        # a loop, not math.lcm(*generator): unpacking a generator builds a
        # tuple of ten and shrinks it, so its free lists fill up with
        # tuples of other sizes, up to 2000 each, and stay resident
        d = 1
        for c in p.coeffs:
            d = math.lcm(d, self.base.denominator(c))
        return d

    def to_integral(self, p: Polynomial, s: int) -> Polynomial:
        """s*p over the integral ring, for s a multiple of p's denominator."""
        lift = self.base.to_integral
        return Polynomial(self.integral_ring.base,
                          [lift(c, s) for c in p.coeffs], self.var)

    def is_unit(self, p: Polynomial) -> bool:
        """Whether p is a constant that is a unit of the base."""
        return p.degree == 0 and self.base.is_unit(p.coeffs[0])

    def q_algebra_hull(self) -> "PolynomialDomain":
        """Polynomials over the hull of the base: Q[t] for Z[t] and Q[t]."""
        return PolynomialDomain(self.base.q_algebra_hull(), self.var)

    @cached_property
    def symbols(self) -> dict:
        """The indeterminate, as a constant of the hull; it counts no bits."""
        return {self.var: (self.q_algebra_hull().element([0, 1]), 0)}

    def __reduce__(self) -> tuple:
        return (type(self), (self.base, self.var))

    def __repr__(self) -> str:
        return self.name.replace("[", "_").replace("]", "")


class NoLinearTermRing(PolynomialDomain):
    """Z[t^2, t^3]: the elements of Z[t] with no t^1 term, with hull Q[t].
    Monic decompositions over Q[t] stay in it (docs/math_notes.md, §5)."""

    #: why an element of Z[t] is not in this ring
    non_member_reason = "the coefficient of t^1 is nonzero"

    def __new__(cls):
        return super().__new__(cls, ZZ, "t")

    def __reduce__(self) -> tuple:
        return (type(self), ())

    def _name(self) -> str:
        return "Z[t2,t3]"

    def coerce(self, v: Any) -> Polynomial:
        p = super().coerce(v)
        if p.coefficient(1) != 0:
            raise TypeError(f"{p} is not in {self.name}: "
                            f"{self.non_member_reason}")
        return p

    def is_element(self, v: Any) -> bool:
        return super().is_element(v) and v.coefficient(1) == 0

    def descend(self, x: Any) -> Optional[Polynomial]:
        """x in Z[t] with no t^1 term, or None."""
        p = super().descend(x)
        return p if p is not None and p.coefficient(1) == 0 else None


ZT = PolynomialDomain(ZZ, "t")
QT = PolynomialDomain(QQ, "t")
ZT23 = NoLinearTermRing()


# ---------------------------------------------------------------------------
# moving polynomials between a ring and its hull
# ---------------------------------------------------------------------------

def hull_of(domain: Any) -> Any:
    """The smallest implemented Q-algebra containing the domain."""
    return domain.q_algebra_hull()


def embed_element(x: Any, src: Any, dst: Any) -> Any:
    """Reinterpret an element of src inside the larger domain dst."""
    return x if src is dst else dst.coerce(x)


def embed_poly(p: Polynomial, dst: Any) -> Polynomial:
    """Coefficientwise embedding of p into the larger domain dst."""
    return p if p.domain is dst else Polynomial(dst, p.coeffs, p.var)


def descend_element(x: Any, ring: Any) -> Optional[Any]:
    """Pull a hull element back into the ring, or None if it is not there."""
    return ring.descend(x)


def descend_poly(p: Polynomial, ring: Any) -> Optional[Polynomial]:
    """Coefficientwise descent of p into the ring, or None."""
    out = []
    for c in p.coeffs:
        cc = ring.descend(c)
        if cc is None:
            return None
        out.append(cc)
    return Polynomial(ring, out, p.var)

"""Exact coefficient domains and decidable subring membership.

Provides arbitrary-precision integers and rationals, imaginary-quadratic
orders O_d and their fraction fields Q(sqrt(d)), polynomial coefficient
domains Z[t] and Q[t], and subring descriptors with total membership
predicates (for example integer polynomials with no linear term).

Every domain object exposes at least ``name``, ``tier``, ``zero``, ``one``,
``coerce``, ``is_element`` and ``format_element``.  Domains at tier
QALGEBRA and above additionally provide exact division by nonzero integers
(``div_int``); fields provide ``div``.
"""

from __future__ import annotations

import math
from enum import IntEnum
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional

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


#: Largest |x| (over Z) or norm (over an order) whose divisors are searched;
#: trial division keeps the search interactive up to here.
_DIVISOR_BOUND = 10 ** 6


def _int_divisors(n: int) -> list[int]:
    """Positive divisors of |n| in ascending order (n nonzero)."""
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


class IntegerRing:
    """The rational integers Z, with the unit group {1, -1}."""

    name = "Z"
    tier = Tier.RING
    zero = 0
    one = 1

    def coerce(self, v: Any) -> int:
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

    def units(self) -> tuple[int, int]:
        return (1, -1)

    def is_unit(self, x: int) -> bool:
        return x == 1 or x == -1

    def are_associates(self, x: int, y: int) -> bool:
        return abs(x) == abs(y)

    def associate_representative(self, x: int) -> int:
        return abs(x)

    def divides_exact(self, x: int, y: int) -> Optional[int]:
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
        if abs(x) > _DIVISOR_BOUND:
            raise ValueError(
                f"divisor search bound exceeded: |{_decimal(x)}| > "
                f"{_DIVISOR_BOUND}")
        return _int_divisors(x)

    def is_irreducible(self, x: int) -> bool:
        if x == 0 or self.is_unit(x):
            raise ValueError("irreducibility is undefined for zero and units")
        return _is_prime(abs(x))

    def fraction_field(self) -> "RationalField":
        return QQ

    def q_algebra_hull(self) -> "RationalField":
        return QQ

    def __repr__(self) -> str:
        return "ZZ"


class RationalField:
    """The rationals Q, backed by fractions.Fraction."""

    name = "Q"
    tier = Tier.FIELD
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v: Any) -> Fraction:
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

    def div_int(self, x: Fraction, n: int) -> Fraction:
        return x / n

    def div(self, x: Fraction, y: Fraction) -> Fraction:
        return x / y

    def q_algebra_hull(self) -> "RationalField":
        return self

    def __repr__(self) -> str:
        return "QQ"


ZZ = IntegerRing()
QQ = RationalField()


# ---------------------------------------------------------------------------
# imaginary quadratic orders and fields
# ---------------------------------------------------------------------------

def _check_d(d: int) -> None:
    if d >= 0:
        raise ValueError(
            f"d = {d}: only imaginary quadratic rings are supported "
            "(the norm must be positive definite for divisor searches)")
    n = -d
    i = 2
    while i * i <= n:
        if n % (i * i) == 0:
            raise ValueError(f"d = {d} is not squarefree")
        i += 1


class QuadraticInt:
    """An element of an imaginary quadratic order.

    Coordinates are with respect to the ring's integral basis: a + b*sqrt(d)
    when d = 2, 3 (mod 4), and a + b*(1+sqrt(d))/2 when d = 1 (mod 4).
    """

    __slots__ = ("ring", "a", "b")

    def __init__(self, ring: "QuadraticIntRing", a: int, b: int = 0):
        self.ring = ring
        self.a = ZZ.coerce(a)
        self.b = ZZ.coerce(b)

    def _wrap(self, other: Any) -> "QuadraticInt":
        if isinstance(other, QuadraticInt):
            if other.ring != self.ring:
                raise TypeError("mixing elements of different quadratic rings")
            return other
        return QuadraticInt(self.ring, ZZ.coerce(other), 0)

    def __add__(self, other: Any) -> "QuadraticInt":
        o = self._wrap(other)
        return QuadraticInt(self.ring, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: Any) -> "QuadraticInt":
        o = self._wrap(other)
        return QuadraticInt(self.ring, self.a - o.a, self.b - o.b)

    def __rsub__(self, other: Any) -> "QuadraticInt":
        return self._wrap(other) - self

    def __neg__(self) -> "QuadraticInt":
        return QuadraticInt(self.ring, -self.a, -self.b)

    def __mul__(self, other: Any) -> "QuadraticInt":
        o = self._wrap(other)
        a, b, c, e = self.a, self.b, o.a, o.b
        if self.ring.half_basis:
            # w^2 = w + (d-1)/4 for w = (1+sqrt(d))/2
            q = (self.ring.d - 1) // 4
            return QuadraticInt(self.ring, a * c + b * e * q, a * e + b * c + b * e)
        return QuadraticInt(self.ring, a * c + b * e * self.ring.d, a * e + b * c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QuadraticInt":
        if n < 0:
            raise ValueError("negative power in a ring")
        return power(self, n, self.ring.one)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadraticInt):
            return (self.ring == other.ring and self.a == other.a
                    and self.b == other.b)
        if isinstance(other, int) and not isinstance(other, bool):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        # as QuadraticRat hashes, so equal ring and field elements agree
        r, s = self.sqrt_coords()
        if s == 0:
            return hash(r)
        return hash((self.ring.d, r, s))

    def conjugate(self) -> "QuadraticInt":
        if self.ring.half_basis:
            # conj(a + b*w) = a + b - b*w  since conj(w) = 1 - w
            return QuadraticInt(self.ring, self.a + self.b, -self.b)
        return QuadraticInt(self.ring, self.a, -self.b)

    def norm(self) -> int:
        if self.ring.half_basis:
            return self.a * self.a + self.a * self.b + self.b * self.b * (1 - self.ring.d) // 4
        return self.a * self.a - self.ring.d * self.b * self.b

    def sqrt_coords(self) -> tuple[Fraction, Fraction]:
        """Coordinates (r, s) with self = r + s*sqrt(d)."""
        if self.ring.half_basis:
            return (Fraction(2 * self.a + self.b, 2), Fraction(self.b, 2))
        return (Fraction(self.a), Fraction(self.b))

    def __str__(self) -> str:
        return self.ring.format_element(self)

    def __repr__(self) -> str:
        return f"QuadraticInt({self.ring.d}, {self.a}, {self.b})"


class QuadraticIntRing:
    """The imaginary quadratic order Z[sqrt(d)] or Z[(1+sqrt(d))/2]."""

    tier = Tier.RING
    _cache: dict[int, "QuadraticIntRing"] = {}

    def __new__(cls, d: int) -> "QuadraticIntRing":
        if d in cls._cache:
            return cls._cache[d]
        _check_d(d)
        self = super().__new__(cls)
        self.d = d
        self.half_basis = (d % 4 == 1)
        self.name = f"O({d})" if self.half_basis else f"Z[sqrt({d})]"
        self.zero = QuadraticInt(self, 0, 0)
        self.one = QuadraticInt(self, 1, 0)
        self._units: Optional[tuple] = None
        cls._cache[d] = self
        return self

    def coerce(self, v: Any) -> QuadraticInt:
        if isinstance(v, QuadraticInt):
            if v.ring != self:
                raise TypeError("element of a different quadratic ring")
            return v
        if isinstance(v, int) and not isinstance(v, bool):
            return QuadraticInt(self, v, 0)
        if isinstance(v, Fraction) and v.denominator == 1:
            return QuadraticInt(self, v.numerator, 0)
        raise TypeError(f"cannot interpret {v!r} in {self.name}")

    def is_element(self, v: Any) -> bool:
        return isinstance(v, QuadraticInt) and v.ring == self

    def element(self, a: int, b: int = 0) -> QuadraticInt:
        return QuadraticInt(self, a, b)

    def format_element(self, x: QuadraticInt) -> str:
        return _format_two_coords(x.a, x.b)

    def descend(self, x: Any) -> Optional[QuadraticInt]:
        """x as an element of the order, or None when it is not integral."""
        if self.is_element(x):
            return x
        if isinstance(x, QuadraticRat):
            if x.field.d != self.d:
                return None
            # r + s*sqrt(d) = (r - s) + 2s*(1+sqrt(d))/2 in the half basis
            a, b = (x.r - x.s, 2 * x.s) if self.half_basis else (x.r, x.s)
        elif isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            a, b = Fraction(x), Fraction(0)
        else:
            return None
        if a.denominator == 1 and b.denominator == 1:
            return QuadraticInt(self, a.numerator, b.numerator)
        return None

    def norm(self, x: QuadraticInt) -> int:
        return self.coerce(x).norm()

    def divides_exact(self, x: QuadraticInt, y: QuadraticInt) -> Optional[QuadraticInt]:
        """y / x when the quotient lies in the ring, else None."""
        x = self.coerce(x)
        y = self.coerce(y)
        n = x.norm()
        if n == 0:
            raise ZeroDivisionError(f"division by zero in {self.name}")
        z = y * x.conjugate()  # equals (y/x) * norm(x)
        if z.a % n == 0 and z.b % n == 0:
            return QuadraticInt(self, z.a // n, z.b // n)
        return None

    def units(self) -> tuple[QuadraticInt, ...]:
        if self._units is None:
            self._units = tuple(self.elements_of_norm(1))
        return self._units

    def is_unit(self, x: QuadraticInt) -> bool:
        return self.coerce(x).norm() == 1

    def are_associates(self, x: QuadraticInt, y: QuadraticInt) -> bool:
        x = self.coerce(x)
        y = self.coerce(y)
        if x.norm() != y.norm():
            return False
        return any(x * u == y for u in self.units())

    def associate_representative(self, x: QuadraticInt) -> QuadraticInt:
        """Canonical choice among the unit multiples of x.

        The representative is the unit multiple whose coordinate pair
        (a, b) is largest; this is deterministic and picks the positive
        element for rational integers.
        """
        x = self.coerce(x)
        return max((x * u for u in self.units()), key=lambda z: (z.a, z.b))

    def elements_of_norm(self, k: int) -> list[QuadraticInt]:
        """All ring elements of norm exactly k (complete since d < 0).

        Both bases share one norm form: 4*norm(a + b*w) is
        (2a + q*b)^2 + D*b^2, with q = 1, D = |d| for w = (1+sqrt(d))/2
        and q = 0, D = 4|d| for w = sqrt(d).
        """
        if k < 0:
            return []
        if k == 0:
            return [self.zero]
        q, D = (1, -self.d) if self.half_basis else (0, -4 * self.d)
        found = []
        bmax = math.isqrt(4 * k // D)
        for b in range(-bmax, bmax + 1):
            rest = 4 * k - D * b * b
            e = math.isqrt(rest)
            if e * e != rest or (e - q * b) % 2 != 0:
                continue
            found.append(QuadraticInt(self, (e - q * b) // 2, b))
            if e != 0:
                found.append(QuadraticInt(self, (-e - q * b) // 2, b))
        found.sort(key=lambda z: (z.a, z.b))
        return found

    def divisors_up_to_associates(self, x: QuadraticInt) -> list[QuadraticInt]:
        """One representative per associate class of divisors of x.

        Includes the unit class and the class of x itself.  Searches
        elements of every norm dividing norm(x), so it is complete; the
        bound on norm(x) keeps the search total at interactive scale.
        """
        x = self.coerce(x)
        n = x.norm()
        if n == 0:
            raise ValueError("zero has no divisor list")
        if n > _DIVISOR_BOUND:
            raise ValueError(
                f"divisor search bound exceeded: norm {_decimal(n)} > "
                f"{_DIVISOR_BOUND}")
        reps = {}
        for k in _int_divisors(n):
            for cand in self.elements_of_norm(k):
                if self.divides_exact(cand, x) is None:
                    continue
                rep = self.associate_representative(cand)
                reps[(rep.a, rep.b)] = rep
        return sorted(reps.values(), key=lambda z: (z.norm(), z.a, z.b))

    def is_irreducible(self, x: QuadraticInt) -> bool:
        """True when the only divisors of x are units and associates of x."""
        x = self.coerce(x)
        if x.norm() == 0 or self.is_unit(x):
            raise ValueError("irreducibility is undefined for zero and units")
        return len(self.divisors_up_to_associates(x)) == 2

    def fraction_field(self) -> "QuadraticField":
        return QuadraticField(self.d)

    def q_algebra_hull(self) -> "QuadraticField":
        return QuadraticField(self.d)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuadraticIntRing) and other.d == self.d

    def __hash__(self) -> int:
        return hash(("QuadraticIntRing", self.d))

    def __repr__(self) -> str:
        return f"QuadraticIntRing({self.d})"


class QuadraticRat:
    """An element r + s*sqrt(d) of the field Q(sqrt(d))."""

    __slots__ = ("field", "r", "s")

    def __init__(self, field: "QuadraticField", r: Any, s: Any = 0):
        self.field = field
        self.r = Fraction(r)
        self.s = Fraction(s)

    def _wrap(self, other: Any) -> "QuadraticRat":
        if isinstance(other, QuadraticRat):
            if other.field != self.field:
                raise TypeError("mixing elements of different quadratic fields")
            return other
        if isinstance(other, QuadraticInt):
            if other.ring.d != self.field.d:
                raise TypeError("mixing elements over different d")
            r, s = other.sqrt_coords()
            return QuadraticRat(self.field, r, s)
        return QuadraticRat(self.field, Fraction(other), 0)

    def __add__(self, other: Any) -> "QuadraticRat":
        o = self._wrap(other)
        return QuadraticRat(self.field, self.r + o.r, self.s + o.s)

    __radd__ = __add__

    def __sub__(self, other: Any) -> "QuadraticRat":
        o = self._wrap(other)
        return QuadraticRat(self.field, self.r - o.r, self.s - o.s)

    def __rsub__(self, other: Any) -> "QuadraticRat":
        return self._wrap(other) - self

    def __neg__(self) -> "QuadraticRat":
        return QuadraticRat(self.field, -self.r, -self.s)

    def __mul__(self, other: Any) -> "QuadraticRat":
        o = self._wrap(other)
        return QuadraticRat(self.field,
                            self.r * o.r + self.field.d * self.s * o.s,
                            self.r * o.s + self.s * o.r)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "QuadraticRat":
        o = self._wrap(other)
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError(f"division by zero in {self.field.name}")
        return self * QuadraticRat(self.field, o.r / n, -o.s / n)

    def __pow__(self, n: int) -> "QuadraticRat":
        if n < 0:
            return self.field.one / power(self, -n, self.field.one)
        return power(self, n, self.field.one)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadraticRat):
            return (self.field == other.field and self.r == other.r
                    and self.s == other.s)
        if isinstance(other, QuadraticInt):
            if other.ring.d != self.field.d:
                return False
            return (self.r, self.s) == other.sqrt_coords()
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.s == 0 and self.r == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.s == 0:
            return hash(self.r)
        return hash((self.field.d, self.r, self.s))

    def conjugate(self) -> "QuadraticRat":
        return QuadraticRat(self.field, self.r, -self.s)

    def norm(self) -> Fraction:
        return self.r * self.r - self.field.d * self.s * self.s

    def __str__(self) -> str:
        return self.field.format_element(self)

    def __repr__(self) -> str:
        return f"QuadraticRat({self.field.d}, {self.r!r}, {self.s!r})"


class QuadraticField:
    """The imaginary quadratic field Q(sqrt(d))."""

    tier = Tier.FIELD
    _cache: dict[int, "QuadraticField"] = {}

    def __new__(cls, d: int) -> "QuadraticField":
        if d in cls._cache:
            return cls._cache[d]
        _check_d(d)
        self = super().__new__(cls)
        self.d = d
        self.name = f"Q(sqrt({d}))"
        self.zero = QuadraticRat(self, 0, 0)
        self.one = QuadraticRat(self, 1, 0)
        cls._cache[d] = self
        return self

    def coerce(self, v: Any) -> QuadraticRat:
        if isinstance(v, QuadraticRat):
            if v.field != self:
                raise TypeError("element of a different quadratic field")
            return v
        if isinstance(v, QuadraticInt):
            if v.ring.d != self.d:
                raise TypeError("element over a different d")
            r, s = v.sqrt_coords()
            return QuadraticRat(self, r, s)
        if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
            return QuadraticRat(self, Fraction(v), 0)
        raise TypeError(f"cannot interpret {v!r} in {self.name}")

    def is_element(self, v: Any) -> bool:
        return isinstance(v, QuadraticRat) and v.field == self

    def element(self, r: Any, s: Any = 0) -> QuadraticRat:
        return QuadraticRat(self, r, s)

    def format_element(self, x: QuadraticRat) -> str:
        return _format_two_coords(x.r, x.s)

    def descend(self, x: Any) -> Optional[QuadraticRat]:
        try:
            return self.coerce(x)
        except TypeError:
            return None

    def div_int(self, x: QuadraticRat, n: int) -> QuadraticRat:
        return x / n

    def div(self, x: QuadraticRat, y: QuadraticRat) -> QuadraticRat:
        return x / y

    def q_algebra_hull(self) -> "QuadraticField":
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QuadraticField) and other.d == self.d

    def __hash__(self) -> int:
        return hash(("QuadraticField", self.d))

    def __repr__(self) -> str:
        return f"QuadraticField({self.d})"


def _format_two_coords(first: Any, second: Any) -> str:
    """Render first + second*w compatibly with the expression grammar."""
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


# ---------------------------------------------------------------------------
# polynomials in t as a coefficient domain
# ---------------------------------------------------------------------------

class PolynomialDomain:
    """Polynomials in one indeterminate used as coefficients.

    Z[t] is a plain ring; Q[t] divides exactly by nonzero integers
    (coefficientwise) and therefore sits at tier QALGEBRA.
    """

    def __init__(self, base: Any, var: str, name: str, tier: Tier):
        self.base = base
        self.var = var
        self.name = name
        self.tier = tier
        self.zero = Polynomial.zero(base, var)
        self.one = Polynomial.constant(base, base.one, var)

    def coerce(self, v: Any) -> Polynomial:
        if isinstance(v, Polynomial):
            if v.var != self.var:
                raise TypeError(f"expected a polynomial in {self.var}, got {v.var}")
            if v.domain == self.base:
                return v
            return v.map_coefficients(self.base.coerce, domain=self.base)
        return Polynomial.constant(self.base, self.base.coerce(v), self.var)

    def is_element(self, v: Any) -> bool:
        return (isinstance(v, Polynomial) and v.domain == self.base
                and v.var == self.var)

    def element(self, coeffs: Iterable[Any]) -> Polynomial:
        return Polynomial(self.base, coeffs, self.var)

    def format_element(self, p: Polynomial) -> str:
        return str(p)

    def descend(self, x: Any) -> Optional[Polynomial]:
        """x with every t-coefficient descended into the base, or None."""
        if not isinstance(x, Polynomial) or x.var != self.var:
            return None
        return descend_poly(x, self.base)

    def div_int(self, p: Polynomial, n: int) -> Polynomial:
        require_tier(self, Tier.QALGEBRA, "integer division")
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return p.map_coefficients(lambda c: self.base.div_int(c, n))

    def q_algebra_hull(self) -> "PolynomialDomain":
        return QT

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, PolynomialDomain) and other.base == self.base
                and other.var == self.var)

    def __hash__(self) -> int:
        return hash(("PolynomialDomain", self.base.name, self.var))

    def __repr__(self) -> str:
        return self.name.replace("[", "_").replace("]", "")


ZT = PolynomialDomain(ZZ, "t", "Z[t]", Tier.RING)
QT = PolynomialDomain(QQ, "t", "Q[t]", Tier.QALGEBRA)


# ---------------------------------------------------------------------------
# moving polynomials between a ring and its hull
# ---------------------------------------------------------------------------

def hull_of(domain: Any) -> Any:
    """The smallest implemented Q-algebra containing the domain."""
    return domain.q_algebra_hull()


def embed_element(x: Any, src: Any, dst: Any) -> Any:
    """Reinterpret an element of src inside the larger domain dst."""
    return x if src == dst else dst.coerce(x)


def embed_poly(p: Polynomial, dst: Any) -> Polynomial:
    """Coefficientwise embedding of p into the larger domain dst."""
    return p if p.domain == dst else Polynomial(dst, p.coeffs, p.var)


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


# ---------------------------------------------------------------------------
# subring descriptors
# ---------------------------------------------------------------------------

class SubringDescriptor:
    """A named subring R of an ambient domain with a total membership test."""

    def __init__(self, name: str, ambient: Any,
                 predicate: Callable[[Any], bool]):
        self.name = name
        self.ambient = ambient
        self._predicate = predicate

    def membership(self, x: Any) -> bool:
        x = self.ambient.coerce(x)
        return self._predicate(x)

    def __contains__(self, x: Any) -> bool:
        return self.membership(x)

    def __repr__(self) -> str:
        return f"SubringDescriptor({self.name})"


Z_IN_Q = SubringDescriptor("Z_in_Q", QQ, lambda x: x.denominator == 1)

ZT23_IN_ZT = SubringDescriptor(
    "Z[t2,t3]", ZT, lambda p: p.coefficient(1) == 0)

QZT23_IN_QT = SubringDescriptor(
    "QZt23_in_Qt", QT, lambda p: p.coefficient(1) == 0)


def order_in_field(d: int) -> SubringDescriptor:
    """Descriptor for the order O_d inside Q(sqrt(d))."""
    ring = QuadraticIntRing(d)
    field = ring.fraction_field()
    return SubringDescriptor(f"O_{d}_in_QsqrtD", field,
                             lambda x: ring.descend(x) is not None)


def q_times(ring: Any) -> SubringDescriptor:
    """Descriptor for Q.R (the span of R over the rationals) in the hull of R.

    For Z and the quadratic orders this is the whole hull; the interesting
    case is integer polynomials with no linear term, whose rational span is
    the rational polynomials with no linear term.
    """
    if isinstance(ring, SubringDescriptor):
        if ring is ZT23_IN_ZT:
            return SubringDescriptor(f"QtimesR_of({ring.name})", QT,
                                     QZT23_IN_QT._predicate)
        raise ValueError(f"no rational span rule for descriptor {ring.name}")
    hull = hull_of(ring)
    return SubringDescriptor(f"QtimesR_of({ring.name})", hull, lambda x: True)

"""Dense univariate polynomials over pluggable exact coefficient domains.

A polynomial stores its coefficients low-to-high: ``coeffs[i]`` is the
coefficient of ``var**i``.  The coefficient domain is any object exposing
``zero``, ``one``, ``coerce``, ``is_element``, ``descend`` and
``format_element``, and whose elements support ``+ - *`` and ``==``
exactly (no floating point is involved anywhere).

The public constructors coerce every coefficient into the domain.  Every
domain is closed under its own ``+ - *``, so the results of ``+``, unary
``-``, a product of two polynomials and ``scale`` are built from what that
arithmetic returns without coercing it again: only trimmed.

A polynomial that the coefficient domain of another takes as an element
(its ``descend``) may stand on either side of ``+ - *`` as that
coefficient: beside a polynomial over Z[t2,t3], an element of Z[t2,t3] or
a constant of Q[t] with integer coefficients and no t^1 term.  The
reflected methods take only a coefficient and return ``NotImplemented``
for any other polynomial.
Python tries no reflected method between two operands of one class, so
``+`` and ``*`` call the other operand's, then their own, and raise
DomainMismatchError where both return ``NotImplemented``.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


class DomainMismatchError(TypeError):
    """Operands live over different coefficient domains (or variables)."""


#: Degree of the zero polynomial.
MINUS_INFINITY = float("-inf")


class Polynomial:
    """Immutable dense univariate polynomial over an exact domain.

    The stored coefficient list is normalized: the last entry is nonzero,
    and the zero polynomial stores no coefficients at all.
    """

    __slots__ = ("domain", "coeffs", "var")

    def __init__(self, domain: Any, coeffs: Iterable[Any] = (), var: str = "x"):
        cs = [domain.coerce(c) for c in coeffs]
        while cs and cs[-1] == domain.zero:
            cs.pop()
        self.domain = domain
        self.coeffs = tuple(cs)
        self.var = var

    def __reduce__(self) -> tuple:
        # __slots__ alone cannot be pickled at protocols 0 and 1
        return Polynomial, (self.domain, self.coeffs, self.var)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, domain: Any, var: str = "x") -> "Polynomial":
        return cls(domain, (), var)

    @classmethod
    def constant(cls, domain: Any, c: Any, var: str = "x") -> "Polynomial":
        return cls(domain, (c,), var)

    @classmethod
    def monomial(cls, domain: Any, c: Any, k: int, var: str = "x") -> "Polynomial":
        """c * var**k"""
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls(domain, [domain.zero] * k + [c], var)

    @classmethod
    def identity(cls, domain: Any, var: str = "x") -> "Polynomial":
        """The polynomial ``var``."""
        return cls(domain, (domain.zero, domain.one), var)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self):
        """Degree, or :data:`MINUS_INFINITY` for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.domain.one

    @property
    def leading_coefficient(self) -> Any:
        if not self.coeffs:
            return self.domain.zero
        return self.coeffs[-1]

    @property
    def constant_term(self) -> Any:
        if not self.coeffs:
            return self.domain.zero
        return self.coeffs[0]

    def coefficient(self, k: int) -> Any:
        """Coefficient of ``var**k`` (zero when k exceeds the degree)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.domain.zero

    def map_coefficients(self, func, domain: Any = None) -> "Polynomial":
        """Apply ``func`` to every coefficient, optionally changing domain."""
        target = domain if domain is not None else self.domain
        return Polynomial(target, [func(c) for c in self.coeffs], self.var)

    def _check_compatible(self, other: "Polynomial") -> None:
        if self.domain is not other.domain or self.var != other.var:
            raise DomainMismatchError(
                f"polynomials over {self.domain!r} in {self.var!r} and "
                f"{other.domain!r} in {other.var!r} cannot be combined")

    # -- arithmetic --------------------------------------------------------

    def _reflect(self, other: "Polynomial", name: str) -> "Polynomial":
        """other's reflected method ``name`` on self, else self's on other,
        for two polynomials that differ in domain or variable (+ and * are
        commutative); DomainMismatchError where both return
        NotImplemented."""
        out = getattr(other, name)(self)
        if out is NotImplemented:
            out = getattr(self, name)(other)
            if out is NotImplemented:
                self._check_compatible(other)   # raises DomainMismatchError
        return out

    def _coefficient(self, other: Any) -> Any:
        """other as a coefficient of self: a polynomial the domain takes
        as its element (``descend``), else NotImplemented; anything that
        is no polynomial unchanged, for the domain to coerce."""
        if isinstance(other, Polynomial) and not self.domain.is_element(other):
            c = self.domain.descend(other)
            return NotImplemented if c is None else c
        return other

    def _add_constant(self, c: Any) -> "Polynomial":
        # a scalar only changes the constant coefficient
        cs = list(self.coeffs) or [self.domain.zero]
        cs[0] = cs[0] + self.domain.coerce(c)
        return _closed(self.domain, cs, self.var)

    def __add__(self, other: Any) -> "Polynomial":
        if not isinstance(other, Polynomial) or self.domain.is_element(other):
            return self._add_constant(other)
        if self.domain is not other.domain or self.var != other.var:
            return self._reflect(other, "__radd__")
        longer, shorter = self.coeffs, other.coeffs
        if len(longer) < len(shorter):
            longer, shorter = shorter, longer
        cs = [a + b for a, b in zip(longer, shorter)]
        cs += longer[len(shorter):]
        return _closed(self.domain, cs, self.var)

    def __radd__(self, other: Any) -> "Polynomial":
        c = self._coefficient(other)
        return c if c is NotImplemented else self._add_constant(c)

    def __sub__(self, other: Any) -> "Polynomial":
        return self + (-other if isinstance(other, Polynomial) else -self.domain.coerce(other))

    def __rsub__(self, other: Any) -> "Polynomial":
        c = self._coefficient(other)
        return c if c is NotImplemented else (-self)._add_constant(c)

    def __neg__(self) -> "Polynomial":
        return _closed(self.domain, [-c for c in self.coeffs], self.var)

    def __mul__(self, other: Any) -> "Polynomial":
        if not isinstance(other, Polynomial) or self.domain.is_element(other):
            return self.scale(other)
        if self.domain is not other.domain or self.var != other.var:
            return self._reflect(other, "__rmul__")
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero(self.domain, self.var)
        z = self.domain.zero
        out = [z] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == z:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return _closed(self.domain, out, self.var)

    def __rmul__(self, other: Any) -> "Polynomial":
        c = self._coefficient(other)
        return c if c is NotImplemented else self.scale(c)

    def scale(self, c: Any) -> "Polynomial":
        c = self.domain.coerce(c)
        return _closed(self.domain, [a * c for a in self.coeffs], self.var)

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, Polynomial.constant(self.domain, self.domain.one, self.var))

    # -- evaluation / composition -----------------------------------------

    def evaluate(self, x0: Any) -> Any:
        """Horner evaluation at an element of the coefficient domain."""
        x0 = self.domain.coerce(x0)
        acc = self.domain.zero
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def __call__(self, x0: Any) -> Any:
        return self.evaluate(x0)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            if other == 0 or self.domain.is_element(other):
                try:
                    other = Polynomial.constant(self.domain, self.domain.coerce(other), self.var)
                except (TypeError, ValueError):
                    return NotImplemented
            else:
                return NotImplemented
        return (self.domain is other.domain and self.var == other.var
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        # a constant equals its coefficient (and the zero polynomial equals
        # 0), so it must hash like that coefficient
        if len(self.coeffs) <= 1:
            return hash(self.constant_term) if self.coeffs else 0
        return hash((self.domain, self.var, self.coeffs))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        domain, var = self.domain, self.var
        zero = domain.zero
        pieces = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c == zero:
                continue
            pieces.append(_format_term(domain, c, i, var))
        out = pieces[0]
        for piece in pieces[1:]:
            if piece.startswith("-") and "(" not in piece.split("*")[0]:
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def __repr__(self) -> str:
        return f"Polynomial({self.domain!r}, {list(self.coeffs)!r}, var={self.var!r})"


def _closed(domain: Any, cs: list, var: str) -> Polynomial:
    """The polynomial on ``cs``, coefficients that the domain's own
    arithmetic returned: trimmed in place, not coerced again."""
    zero = domain.zero
    while cs and cs[-1] == zero:
        cs.pop()
    p = object.__new__(Polynomial)
    p.domain = domain
    p.coeffs = tuple(cs)
    p.var = var
    return p


def _format_term(domain: Any, c: Any, i: int, var: str) -> str:
    cstr = domain.format_element(c)
    # parenthesize coefficients with interior + or - so the output reparses
    rest = cstr[1:]
    needs_parens = "+" in rest or "-" in rest
    if i == 0:
        return f"({cstr})" if needs_parens else cstr
    xpow = var if i == 1 else f"{var}^{i}"
    if cstr == "1":
        return xpow
    if cstr == "-1":
        return "-" + xpow
    if needs_parens:
        return f"({cstr})*{xpow}"
    return f"{cstr}*{xpow}"


# -- free functions for the core operations --------------------------------

def power(x: Any, n: int, one: Any) -> Any:
    """x**n for n >= 0 by square-and-multiply, starting from ``one``.

    Squares only while bits of n remain, so the last, largest square is
    never computed and then thrown away.
    """
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def compose(g: Polynomial, h: Polynomial) -> Polynomial:
    """g(h(x)), computed by Horner over the shared coefficient domain."""
    g._check_compatible(h)
    acc = Polynomial.zero(g.domain, g.var)
    for c in reversed(g.coeffs):
        acc = acc * h + c
    return acc


def derivative(p: Polynomial) -> Polynomial:
    """Formal derivative."""
    return Polynomial(p.domain,
                      [p.coeffs[i] * i for i in range(1, len(p.coeffs))],
                      p.var)


def divrem_monic(f: Polynomial, h: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient and remainder of ``f`` by a monic nonconstant ``h``.

    Exact over any ring because the division only ever divides by the
    leading coefficient 1 of ``h``.
    """
    f._check_compatible(h)
    m = h.degree
    if m < 1 or not h.is_monic():
        raise ValueError("divisor must be monic of degree >= 1")
    rem = list(f.coeffs)
    _divrem_monic_in_place(rem, h.coeffs, f.domain.zero)
    return (Polynomial(f.domain, rem[m:], f.var),
            Polynomial(f.domain, rem[:m], f.var))


def _divrem_monic_in_place(rem: list, h: Sequence[Any], zero: Any) -> None:
    """Divide the coefficient list ``rem`` (low to high) by a monic ``h``
    of degree m >= 1: afterwards ``rem[:m]`` is the remainder and
    ``rem[m:]`` the quotient.

    Walking down from the top, an entry is final, and is the quotient's,
    once the entries above it have subtracted their multiples of h.  The
    lead of h would only clear that entry, so it is skipped, and so are
    the zero coefficients of h.
    """
    m = len(h) - 1
    terms = [(j, hj) for j, hj in enumerate(h[:m]) if hj != zero]
    for k in range(len(rem) - 1, m - 1, -1):
        c = rem[k]
        if c != zero:
            for j, hj in terms:
                rem[k - m + j] = rem[k - m + j] - c * hj


def hadic_digits(f: Polynomial, h: Polynomial) -> list[Polynomial]:
    """Digits a_0..a_k of the unique expansion f = sum a_i * h**i.

    Every digit has degree < deg h.  Recomposing the digits reproduces
    ``f`` exactly; ``f`` factors through ``h`` iff all digits are constant.
    """
    digits = []
    current = f
    while not current.is_zero():
        current, r = divrem_monic(current, h)
        digits.append(r)
    return digits

"""Deciding and constructing functional decompositions f = g(h(x)).

The monic case is solved by a power-series root: the top m coefficients
of f = g(h) are those of h^n, so rev(h) is the n-th root of rev(f)
modulo x^m, where rev reverses the coefficient list.  That fixes a
unique monic candidate h with h(0) = 0, and the h-adic digits of f then
decide the question, over a ring in its own coefficients.  Field
decomposition and a unit lead reduce to the monic case by a linear
change: one loop, ``_first_split``, divides the lead out once per
polynomial and tries every inner degree on the same monic f/lc.
Quartics additionally get a closed form and, over Z and the
imaginary-quadratic orders, an exact over-the-ring decision.

Each pair is proved as it is built: by the full digit expansion in the
monic case, by the section 2 identity and the three candidate tests for
a ring quartic (docs/math_notes.md, sections 1 and 3).  No decider
recomposes its pair; ``Decomposition.certificate`` is for consumers
that want to audit one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Any, Iterable, Optional

from .poly import Polynomial, _divrem_monic_in_place, compose, derivative
from .domains import CapabilityError, Tier, embed_poly, hull_of, require_tier


@dataclass(frozen=True)
class Decomposition:
    """A pair g, h with deg g, deg h >= 2."""

    g: Polynomial
    h: Polynomial

    def __post_init__(self):
        if self.g.degree < 2:
            raise ValueError("outer factor must have degree at least 2")
        if self.h.degree < 2:
            raise ValueError("inner factor must have degree at least 2")

    @property
    def certificate(self) -> Polynomial:
        """compose(g, h), recomputed on each read."""
        return compose(self.g, self.h)

    def __iter__(self):
        return iter((self.g, self.h))

    def __repr__(self) -> str:
        return f"Decomposition(g={self.g!s}, h={self.h!s})"


class RingDecideStatus(str, Enum):
    DECOMPOSABLE_OVER_RING = "decomposable_over_ring"
    INDECOMPOSABLE_OVER_RING = "indecomposable_over_ring"
    INDECOMPOSABLE_OVER_FIELD = "indecomposable_over_field"


@dataclass(frozen=True)
class CandidateCheck:
    """How one candidate leading coefficient u fared in the ring decision."""

    u: Any
    square_divides_lead: bool
    divides_linear: bool
    inner_stays_in_ring: bool

    @property
    def passed(self) -> bool:
        return (self.square_divides_lead and self.divides_linear
                and self.inner_stays_in_ring)


@dataclass(frozen=True)
class RingDecideOutcome:
    """Result of an over-the-ring decision.

    Exactly one of three situations holds, named by ``status``.  When the
    polynomial decomposes over the fraction field, ``field_evidence`` holds
    that decomposition; when it also decomposes over the ring,
    ``decomposition`` holds a pair with all coefficients in the ring.
    ``candidates`` records every leading coefficient tried, for audit; it
    is None for a unit lead, where no search runs and ``field_evidence``
    is ``decomposition`` (docs/math_notes.md, sections 1 and 5).

    ``f`` is the field-decomposable quartic a candidate search decided,
    and None for every other outcome.  The search decides without the
    field, so ``field_evidence`` is derived from ``f`` on first read, by
    the closed form over the hull, and kept; it is never passed in, so it
    cannot contradict the decision.  ``==``, ``hash``, ``repr``, copies
    and pickles read the four fields, ``f`` among them, so reading the
    evidence changes none of them.
    """

    status: RingDecideStatus
    decomposition: Optional[Decomposition]
    candidates: Optional[tuple]
    f: Optional[Polynomial] = None

    @cached_property
    def field_evidence(self) -> Optional[Decomposition]:
        f = self.f
        if f is None:
            return self.decomposition
        return quartic_field_decompose(embed_poly(f, hull_of(f.domain)))


def proper_inner_degrees(n: int) -> list[int]:
    """Divisors m of n with 1 < m < n, ascending."""
    return [m for m in range(2, n) if n % m == 0]


def monic_decompose(f: Polynomial, m: int) -> Optional[Decomposition]:
    """The unique monic h (deg m, h(0)=0) with f = g(h), if one exists.

    Works over every domain of the package.  With n = deg(f)/m, the top
    m coefficients of g(h) are those of h^n, so rev(f) = rev(h)^n mod x^m
    and rev(h) is the power-series n-th root of rev(f) to order m.
    J.C.P. Miller's recurrence computes that root in O(m^2) coefficient
    operations, dividing only by the integers n*k.
    Once h is fixed, f decomposes through it iff all h-adic digits of f
    are constants, and those constants are the coefficients of g.  The
    digits are taken one division at a time, stopping at the first that
    is not a constant; a full expansion proves f = g(h) exactly, so the
    pair is not recomposed.

    Since h(0) = 0, g(0) = f(0): the constant term is set directly and
    enters neither the root nor the digits.  Both steps run on an
    integrally closed ring R: a ring domain itself (Z[t2,t3] computes in
    Z[t], and section 5 keeps its pair in it), or the integral ring of a
    Q-algebra (Z for Q, O_d for Q(sqrt(d)), Z[t] for Q[t]; see domains).
    With lam = 1 over a ring, else a positive integer such that
    lam^(N-k) f_k lies in R for 0 < k < N, F(x) = lam^N (f(x/lam) - f(0))
    is monic in R[x], and f = g(h) iff F = G(H) with H(x) =
    lam^m h(x/lam) and G(y) = lam^N (g(y/lam^m) - g(0)).  A monic F in
    R[x] only decomposes with H and G in R[x]: a root coefficient outside
    R rejects the degree at once, and the digits are taken by division
    in R (docs/math_notes.md, section 1).
    """
    N = f.degree
    if N < 4:
        raise ValueError("degree must be at least 4")
    if not f.is_monic():
        raise ValueError("polynomial must be monic")
    if not (1 < m < N) or N % m != 0:
        raise ValueError(f"inner degree {m} is not a proper divisor of {N}")
    dom = f.domain
    if dom.tier == Tier.RING:
        ring, lam, F = dom, 1, [dom.zero, *f.coeffs[1:]]
    else:
        ring = dom.integral_ring
        lam = _integral_scale(f)
        F = [ring.zero] * N + [ring.one]
        to_integral, scale = dom.to_integral, 1
        for k in range(N - 1, 0, -1):
            scale *= lam
            F[k] = to_integral(f.coeffs[k], scale)
    zero = ring.zero
    H = _inner_root(F, m, ring)
    if H is None:
        return None

    # H-adic digits, lowest first, one division at a time; digit 0 is
    # F(0) = 0, and g(0) is f(0)
    G = []
    rem = F
    while rem:
        _divrem_monic_in_place(rem, H, zero)
        if any(c != zero for c in rem[1:m]):
            return None
        G.append(rem[0])
        rem = rem[m:]
    G[0] = f.constant_term
    # the domain is R or embeds it, so with lam = 1 it takes the pair as is
    if lam != 1:
        divide = dom.divides_exact
        H = [divide(lam ** (m - k), c) for k, c in enumerate(H)]
        for j in range(1, len(G)):
            G[j] = divide(lam ** (N - m * j), G[j])
    return Decomposition(Polynomial(dom, G, f.var), Polynomial(dom, H, f.var))


def _integral_scale(f: Polynomial) -> int:
    """A positive integer lam with lam^(N-k) f_k in the integral ring of
    f's domain for 0 < k < N, for f monic of degree N.  f(0) is g(0) and
    never enters the lift, so its denominator does not enter lam.

    Walking down from the top, each denominator d_k multiplies lam by
    only the part of it that lam^(N-k) does not already cover.  So lam
    divides the lcm of the denominators, and is often far smaller: a
    prime met high in f covers its powers in the lower coefficients,
    whose exponents N-k are larger.
    """
    N = f.degree
    denominator = f.domain.denominator
    lam = 1
    for k in range(N - 1, 0, -1):
        d = denominator(f.coeffs[k])
        if lam % d:
            # no prime divides d more often than d has bits, so
            # d | lam^(N-k) iff d | lam^e
            e = min(N - k, d.bit_length())
            lam *= d // math.gcd(d, pow(lam, e, d))
    return lam


def _inner_root(F: list, m: int, ring: Any) -> Optional[list]:
    """Coefficients of the monic H of degree m with H(0) = 0 whose n-th
    power agrees with F in its top m coefficients, or None when the root
    leaves the ring.

    F lists the coefficients over the ring of a monic polynomial of
    degree N = n*m, low to high.  The root divides only by the integers
    n*k, through ``ring.divides_exact``.
    """
    N = len(F) - 1
    n = N // m
    zero = ring.zero

    # P = A^(1/n) with A_j = F_{N-j}, A_0 = 1:
    #   P_k = sum_{j=1..k} ((n+1)*j - n*k) * A_j * P_{k-j} / (n*k)
    A = F[N:N - m:-1]
    P = [ring.one]
    for k in range(1, m):
        acc = zero
        for j in range(1, k + 1):
            if A[j] != zero:
                acc = acc + A[j] * P[k - j] * ((n + 1) * j - n * k)
        p = ring.divides_exact(n * k, acc)
        if p is None:
            return None
        P.append(p)
    return [zero] + P[::-1]


def _first_split(f: Polynomial,
                 degrees: Iterable[int]) -> Optional[Decomposition]:
    """The first pair (g, h) of f with deg h in ``degrees``, tried in
    order, or None.

    f/lc(f) depends on f alone, so the lead is divided out once and every
    degree runs :func:`monic_decompose` on the same monic polynomial; a
    pair (g, h) of f/lc gives (lc*g, h), which composes to f.  A unit
    lead works over any domain, and any other lead requires a field.
    """
    monic, lc, dom = f, f.leading_coefficient, f.domain
    if not f.is_monic():
        if not dom.is_unit(lc):
            require_tier(dom, Tier.FIELD, "non-monic decomposition")
        monic = f.map_coefficients(lambda c: dom.divides_exact(lc, c))
    for m in degrees:
        dec = monic_decompose(monic, m)
        if dec is not None:
            return dec if monic is f else Decomposition(dec.g.scale(lc), dec.h)
    return None


def decompose_over_field(f: Polynomial, m: int) -> Optional[Decomposition]:
    """Decompose f with inner degree m, allowing any leading coefficient.

    Reduces to the monic case via f/lc(f), whose monic decomposition
    keeps f(0)/lc(f) as g(0), and returns (lc(f)*g, h), so compose(g, h)
    = f exactly.  A unit leading coefficient (1, say, -1 over Z or 2 over
    Q[t]) works over any domain, and the pair lies over it; any other
    lead requires a field.  This is the entry for one inner degree;
    :func:`decompose_fully` and :func:`decompose_over_ring` try several
    on one division of the lead.
    """
    if f.degree < 4:
        raise ValueError("degree must be at least 4")
    return _first_split(f, [m])


def quartic_field_decompose(f: Polynomial) -> Optional[Decomposition]:
    """Closed-form degree-4 test over a field.

    With f = a4 x^4 + a3 x^3 + a2 x^2 + a1 x + a0, set c = a3/(2 a4) and
    e = a2 - a4 c^2.  Then f decomposes (necessarily with inner degree 2)
    iff a1 = e*c, in which case f = (a4 x^2 + e x + a0) o (x^2 + c x).

    The test a1 = e*c is 8 a4^2 a1 = Delta a3 with Delta = 4 a4 a2 - a3^2,
    homogeneous of degree 3 in a1..a4, so it runs on the integral lift
    s*a_k, s the lcm of their denominators, in the field's integral ring.
    Only a hit builds the pair in the field, with one division for c.
    """
    if f.degree != 4:
        raise ValueError("quartic test needs degree exactly 4")
    require_tier(f.domain, Tier.FIELD, "the quartic closed form")
    dom = f.domain
    a1, a2, a3, a4 = f.coeffs[1:]
    s = math.lcm(*map(dom.denominator, (a1, a2, a3, a4)))
    A1, A2, A3, A4 = (dom.to_integral(a, s) for a in (a1, a2, a3, a4))
    if A4 * A4 * A1 * 8 != (A4 * A2 * 4 - A3 * A3) * A3:
        return None
    c = dom.divides_exact(A4 * 2, A3)
    e = a2 - a4 * c * c
    g = Polynomial(dom, [f.constant_term, e, a4], f.var)
    h = Polynomial(dom, [dom.zero, c, dom.one], f.var)
    return Decomposition(g, h)


def quartic_ring_decide(f: Polynomial) -> RingDecideOutcome:
    """Decide degree-4 decomposability over the coefficient ring itself.

    The fraction field K sees at most one decomposition shape,
    (D x^2 + E x) o (x^2 + C x) after dropping f(0), and every other
    K-decomposition arises from it by a linear insertion, so it has inner
    factor u x^2 + u C x - u v.  Chasing which u, v keep all coefficients
    in the ring R reduces to three conditions on u alone:

        (i) u^2 divides D in R, (ii) u divides E in R, (iii) u*C lies in R,

    and when they hold v = 0 already works, giving

        g = (D/u^2) x^2 + (E/u) x + f(0),   h = u x^2 + u C x.

    (Necessity of (ii): if (2Dv + E)/u lies in R, subtract 2*(uv)*(D/u^2).)
    With Delta = 4 D a2 - a3^2, the field test a1 = E*C is
    8 D^2 a1 = Delta*a3, and (ii), (iii) are the divisions Delta/(4Du),
    u*a3/(2D) in R (docs/math_notes.md, section 3).
    Candidates u run over divisors of D up to associates, ascending norm.
    The norm N of R is multiplicative (|x| over Z), so each division has
    an integer necessary condition: N(u)^2 | N(D), N(4D) N(u) | N(Delta)
    and N(2D) | N(u) N(a3).  A division runs only where its norm test
    passes; over Z the two are equivalent.
    The constant f(0) only ever shifts g's constant term, so it changes
    nothing about decomposability over R.

    The pair is proved as it is built, and not recomposed: the identity
    makes (D y^2 + E y + f(0)) o (x^2 + C x) equal f over K, and the
    three quotients are that pair's coefficients with u moved from g to
    h, so they compose to f as well.  Nothing here computes in K: the
    K-pair, the outcome's ``field_evidence``, is built on its first read.
    """
    ring = f.domain
    if not ring.enumerates_divisors:
        raise CapabilityError(
            f"{ring.name} has no divisor enumeration; the over-ring quartic "
            "decision needs one")
    if f.degree != 4:
        raise ValueError("quartic decision needs degree exactly 4")

    lead, a3, a2, a1 = (f.coefficient(k) for k in (4, 3, 2, 1))
    delta = lead * a2 * 4 - a3 * a3
    if lead * lead * a1 * 8 != delta * a3:
        return RingDecideOutcome(RingDecideStatus.INDECOMPOSABLE_OVER_FIELD,
                                 None, ())

    # each division runs only where its norm test passes
    norm = ring.norm
    lead4, lead2 = lead * 4, lead * 2
    n_lead, n_delta, n_a3 = norm(lead), norm(delta), norm(a3)
    n_4lead, n_2lead = norm(lead4), norm(lead2)
    candidates = []
    found = None
    for u in ring.divisors_up_to_associates(lead):
        n_u = norm(u)
        D_by_u2 = (ring.divides_exact(u * u, lead)
                   if n_lead % (n_u * n_u) == 0 else None)
        E_by_u = (ring.divides_exact(lead4 * u, delta)
                  if n_delta % (n_4lead * n_u) == 0 else None)
        uC = (ring.divides_exact(lead2, u * a3)
              if n_u * n_a3 % n_2lead == 0 else None)
        check = CandidateCheck(u, D_by_u2 is not None, E_by_u is not None,
                               uC is not None)
        candidates.append(check)
        if check.passed and found is None:
            found = Decomposition(
                Polynomial(ring, [f.constant_term, E_by_u, D_by_u2], f.var),
                Polynomial(ring, [ring.zero, uC, u], f.var))

    status = (RingDecideStatus.INDECOMPOSABLE_OVER_RING if found is None
              else RingDecideStatus.DECOMPOSABLE_OVER_RING)
    return RingDecideOutcome(status, found, tuple(candidates), f)


def decompose_over_ring(f: Polynomial,
                        degrees: Iterable[int]) -> RingDecideOutcome:
    """Decide f = g(h) with every coefficient in the coefficient ring of f.

    When the leading coefficient of f is a unit of its ring, as it is
    when f is monic or the ring is a field, the lead is divided out once
    and the first inner degree in ``degrees`` at which
    :func:`monic_decompose` finds a pair decides.  That pair lies over
    the ring and is the field evidence too: a pair over the fraction
    field already lies in the ring (docs/math_notes.md, sections 1 and
    5).  A quartic with any other lead, over a ring with
    divisor enumeration, goes to :func:`quartic_ring_decide`.
    Anything else raises CapabilityError naming the ring.
    """
    ring = f.domain
    if ring.is_unit(f.leading_coefficient):
        dec = _first_split(f, degrees)
        status = (RingDecideStatus.INDECOMPOSABLE_OVER_FIELD if dec is None
                  else RingDecideStatus.DECOMPOSABLE_OVER_RING)
        return RingDecideOutcome(status, dec, None)

    if f.degree == 4 and ring.enumerates_divisors:
        if any(m != 2 for m in degrees):
            raise ValueError("a quartic only admits inner degree 2")
        return quartic_ring_decide(f)

    raise CapabilityError(
        f"no over-ring decision procedure for a non-monic polynomial of "
        f"degree {f.degree} over {ring.name}; monic polynomials and "
        f"quartics over Z or an imaginary-quadratic order are decidable")


def linear_relate(h: Polynomial, H: Polynomial) -> Optional[tuple]:
    """Find (a, b) with H = a*h + b, if the two differ by that little.

    In characteristic zero, whenever g(h) = G(H) with deg h = deg H this
    relation must hold, which is what makes the inner factor of a
    decomposition essentially unique.
    """
    if h.degree != H.degree or h.degree < 1:
        raise ValueError("both polynomials must share a degree >= 1")
    require_tier(h.domain, Tier.FIELD, "relating inner factors")
    dom = h.domain
    a = dom.divides_exact(h.leading_coefficient, H.leading_coefficient)
    diff = H - h.scale(a)
    if not diff.is_constant():
        return None
    return (a, diff.constant_term)


def verify_taylor_expansion(G: Polynomial, h: Polynomial, h0: Polynomial,
                            a: Any) -> bool:
    """Check G(a*h + h0) = sum_i G^(i)(h0) * (a*h)^i / i! up to i = deg G.

    Always true over a Q-algebra; exposed so the identity (which drives
    the uniqueness argument for equal-degree inner factors) can be
    exercised directly by library callers and tests.  No command runs it.
    """
    require_tier(G.domain, Tier.QALGEBRA, "Taylor expansion")
    dom = G.domain
    a = dom.coerce(a)
    ah = h.scale(a)
    lhs = compose(G, ah + h0)

    rhs = Polynomial.zero(dom, G.var)
    gi = G
    power = Polynomial.constant(dom, dom.one, G.var)
    factorial = 1
    i = 0
    while True:
        term = compose(gi, h0) * power
        rhs = rhs + term.map_coefficients(
            lambda cc: dom.divides_exact(factorial, cc))
        if gi.is_constant():
            break
        gi = derivative(gi)
        power = power * ah
        i += 1
        factorial *= i
    return lhs == rhs


def decompose_fully(f: Polynomial) -> list[Polynomial]:
    """A complete decomposition chain c1 o c2 o ... o ck = f.

    Tries inner degrees in increasing order and recurses on both factors,
    so every returned factor is indecomposable.  The lead is divided out
    once per polynomial: every degree runs :func:`monic_decompose` on the
    same monic f/lc, and only a hit scales g back by lc.  Deterministic,
    but not canonical: equivalent chains related by linear insertions
    exist.
    """
    N = f.degree
    if N < 2:
        raise ValueError("degree must be at least 2")
    degrees = proper_inner_degrees(N)
    # with no degree to try, f is not divided, so a prime-degree f with a
    # non-unit lead over a ring comes back whole instead of raising
    dec = _first_split(f, degrees) if degrees else None
    if dec is None:
        return [f]
    return decompose_fully(dec.g) + decompose_fully(dec.h)

"""Degree-4 polynomials that decompose over the fraction field but not
over the ring, built from a failure of unique factorization.

Starting from two genuinely different irreducible factorizations of the
same element, one extracts a triple (ell, a, p_s) with ell | a*p_s but
ell dividing neither factor.  Then c = a/ell lies outside the ring while
d = p_s^2 makes every coefficient of

    f = (d x^2 + ell x) o (x^2 + c x)
      = d x^4 + 2dc x^3 + (dc^2 + ell) x^2 + ell*c x

land back inside it, and f is the desired example: the field sees the
displayed decomposition, the ring provably sees none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Any, Optional

from .poly import Polynomial, compose
from .domains import CapabilityError, QuadraticIntRing, embed_poly, hull_of
from .decomp import (Decomposition, RingDecideOutcome, RingDecideStatus,
                     quartic_field_decompose, quartic_ring_decide)


@dataclass(frozen=True)
class FactorizationPair:
    """One element with two factorizations into irreducibles.

    The ring is carried explicitly so plain integers work as factors
    alongside quadratic integers.  Construction checks that both lists
    are irreducible factorizations of the element; a pair that exists
    has passed that check (a stripped pair through its input), so
    consumers do not repeat it.
    """

    ring: Any
    element: Any
    first: tuple
    second: tuple

    def __post_init__(self):
        object.__setattr__(self, "element", self.ring.coerce(self.element))
        object.__setattr__(self, "first",
                           tuple(self.ring.coerce(x) for x in self.first))
        object.__setattr__(self, "second",
                           tuple(self.ring.coerce(x) for x in self.second))
        _check_pair(self)


def _product(ring: Any, factors: tuple) -> Any:
    out = ring.one
    for x in factors:
        out = out * x
    return out


def _require_divisors(ring: Any) -> None:
    """Raise CapabilityError unless ring lists divisors, as witnesses need."""
    if not ring.enumerates_divisors:
        raise CapabilityError(f"{ring.name} does not support factorization "
                              f"witnesses; use Z or an imaginary-quadratic ring")


def _check_pair(pair: FactorizationPair) -> None:
    """Raise unless both lists are irreducible factorizations of element."""
    ring = pair.ring
    _require_divisors(ring)
    if not pair.first or not pair.second:
        raise ValueError("both factor lists must be nonempty")
    for side, factors in (("first", pair.first), ("second", pair.second)):
        for x in factors:
            if ring.norm(x) == 0 or ring.is_unit(x):
                raise ValueError(f"{side} list contains a unit or zero: {x}")
            if not ring.is_irreducible(x):
                raise ValueError(f"{side} list contains a reducible factor: "
                                 f"{ring.format_element(x)}")
        if not ring.are_associates(_product(ring, factors), pair.element):
            raise ValueError(
                f"the {side} list does not multiply to the element")


def _cancel_associates(ring: Any, first: tuple,
                       second: tuple) -> tuple[list, list]:
    """What is left of both lists after cancelling associate pairs.

    Associateness is an equivalence relation, so cancelling greedily, in
    order, leaves as little as a maximum matching would.
    """
    left, right = [], list(second)
    for p in first:
        j = next((j for j, q in enumerate(right)
                  if ring.are_associates(p, q)), None)
        if j is None:
            left.append(p)
        else:
            del right[j]
    return left, right


def validate_inequivalent(pair: FactorizationPair) -> bool:
    """True iff no bijection matches the two lists up to associates."""
    left, right = _cancel_associates(pair.ring, pair.first, pair.second)
    return bool(left or right)


def strip_common_associates(pair: FactorizationPair) -> FactorizationPair:
    """Cancel matched associate factors until the lists share none.

    The remaining element is the product of the surviving first list; it
    is neither zero nor a unit.  Raises when cancellation empties a list,
    which means the factorizations were equivalent all along.
    """
    ring = pair.ring
    first, second = _cancel_associates(ring, pair.first, pair.second)
    if not first or not second:
        raise ValueError("the factorizations are equivalent; nothing remains "
                         "after cancelling associates")
    # Every survivor passed _check_pair in the input, and cancelling
    # associate pairs keeps the two products associate, so the stripped
    # pair is built without checking it again.
    stripped = object.__new__(FactorizationPair)
    for name, value in (("ring", ring), ("element", _product(ring, first)),
                        ("first", tuple(first)), ("second", tuple(second))):
        object.__setattr__(stripped, name, value)
    return stripped


def derive_witness_params(pair: FactorizationPair) -> tuple:
    """Extract (ell, a, p_s) with ell | a*p_s, ell ∤ a, ell ∤ p_s.

    ell is the first factor of the first list; s is the least index such
    that ell divides p_1 * ... * p_s taken from the second list; a is the
    product of the first s-1 of those (so 1 when s = 1).
    """
    ring = pair.ring
    ell = pair.first[0]
    prefix = ring.one
    for p in pair.second:
        if ring.divides_exact(ell, prefix * p) is not None:
            if ring.divides_exact(ell, p) is not None:
                raise ValueError(
                    "ell divides a single factor of the other list; the "
                    "factorizations were not stripped of common associates")
            return (ell, prefix, p)
        prefix = prefix * p
    raise ValueError("ell does not divide the opposite product; the input "
                     "is not a factorization pair")


@dataclass(frozen=True)
class WitnessData:
    """A constructed example with all the ingredients kept for audit."""

    ring: Any
    ell: Any
    a: Any
    p_s: Any
    c: Any              # a/ell, in the fraction field, outside the ring
    d: Any              # p_s^2, in the ring
    f: Polynomial       # over the ring


def _relation_failures(ring: Any, ell: Any, a: Any, p_s: Any) -> list:
    """Which of ell | a*p_s, ell ∤ a, ell ∤ p_s fail, as readable lines.

    A zero ell divides nothing, so it is reported alone.
    """
    if ell == ring.zero:
        return ["ell is zero"]
    failures = []
    if ring.divides_exact(ell, a * p_s) is None:
        failures.append("ell does not divide a*p_s")
    if ring.divides_exact(ell, a) is not None:
        failures.append("ell divides a")
    if ring.divides_exact(ell, p_s) is not None:
        failures.append("ell divides p_s")
    return failures


def _is_expansion(ring: Any, w: WitnessData) -> bool:
    """Whether f == (d x^2 + ell x) o (x^2 + c x), decided in the ring:
    with H = ell x^2 + (ell c) x, it holds iff ell*c is in the ring and
    ell^2 f == (d y^2 + ell^2 y) o H (docs/math_notes.md, section 4).
    A zero ell is no expansion: c = a/ell is undefined, and the identity
    would hold for every f.
    """
    if w.ell == ring.zero:
        return False
    ell_c = ring.descend(w.ell * w.c)
    ell2 = w.ell * w.ell
    return ell_c is not None and w.f.scale(ell2) == compose(
        Polynomial(ring, [ring.zero, ell2, w.d], "x"),
        Polynomial(ring, [ring.zero, ell_c, w.ell], "x"))


def build_witness_poly(ell: Any, a: Any, p_s: Any, ring: Any) -> WitnessData:
    """Assemble the quartic from a triple satisfying the divisibility facts.

    Checks ell | a*p_s, ell ∤ a, ell ∤ p_s, then forms c = a/ell and
    d = p_s^2.  With t = a*p_s/ell in the ring, the expansion of
    (d x^2 + ell x) o (x^2 + c x) is d x^4 + 2 p_s t x^3 + (t^2 + ell) x^2
    + a x, built in the ring (docs/math_notes.md, section 4).  A ring
    without divisor enumeration raises CapabilityError.
    """
    _require_divisors(ring)
    ell = ring.coerce(ell)
    a = ring.coerce(a)
    p_s = ring.coerce(p_s)

    if ring.norm(ell) == 0 or ring.is_unit(ell):
        raise ValueError("ell must be a nonzero nonunit")
    failures = _relation_failures(ring, ell, a, p_s)
    if failures:
        raise ValueError("; ".join(failures))

    c = hull_of(ring).divides_exact(ell, a)    # one division in the hull
    t = ring.divides_exact(ell, a * p_s)        # d*c = p_s*t, d*c^2 = t^2
    d = p_s * p_s
    f = Polynomial(ring, [ring.zero, a, t * t + ell, p_s * t * 2, d], "x")
    return WitnessData(ring=ring, ell=ell, a=a, p_s=p_s, c=c, d=d, f=f)


@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class WitnessReport:
    clauses: tuple
    field_decomposition: Optional[Decomposition]
    ring_outcome: Optional[RingDecideOutcome]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)


def verify_witness(w: WitnessData) -> WitnessReport:
    """Re-derive everything the construction promises and report per clause.

    Clause 1: the quartic decomposes over the field with inner x^2 + c x;
    the pair read is the over-ring decision's field evidence, or the closed
    form's when that decision raised.
    Clause 2: the over-ring decision returns indecomposable-over-ring.
    Clause 3: the stored ingredients satisfy their divisibility relations
    and f really is the expansion of (d x^2 + ell x) o (x^2 + c x), in R;
    a ring without divisor enumeration fails it with CapabilityError's
    text.  Failures are reported, never raised.
    """
    ring = w.ring
    try:
        outcome = quartic_ring_decide(w.f)
    except (ValueError, TypeError) as exc:
        outcome = None
        ring_clause = Clause("ring_indecomposability", False, str(exc))
    else:
        ring_clause = Clause(
            "ring_indecomposability",
            outcome.status is RingDecideStatus.INDECOMPOSABLE_OVER_RING,
            f"over-ring decision: {outcome.status.value}")

    field_clause = Clause("field_decomposition", False,
                          "the quartic does not decompose over the field")
    if outcome is not None:
        dec = outcome.field_evidence
    else:
        try:
            dec = quartic_field_decompose(embed_poly(w.f, hull_of(ring)))
        except (ValueError, TypeError) as exc:
            dec, field_clause = None, Clause("field_decomposition", False,
                                             str(exc))
    if dec is not None:
        inner_ok = dec.h.coefficient(1) == w.c
        field_clause = Clause(
            "field_decomposition", inner_ok,
            f"inner factor {dec.h} {'matches' if inner_ok else 'differs from'}"
            f" x^2 + c*x")

    try:
        _require_divisors(ring)
    except CapabilityError as exc:
        details = [str(exc)]
    else:
        details = _relation_failures(ring, w.ell, w.a, w.p_s)
        try:
            if not (ring.is_irreducible(w.ell)
                    and ring.is_irreducible(w.p_s)):
                details.append("ell or p_s is reducible")
            elif ring.are_associates(w.ell, w.p_s):
                details.append("ell and p_s are associates")
        except ValueError as exc:
            details.append(str(exc))
        if w.d != w.p_s * w.p_s:
            details.append("d is not p_s^2")
        if not _is_expansion(ring, w):
            details.append("f is not the expansion of "
                           "(d x^2 + ell x) o (x^2 + c x)")
    relations_clause = Clause(
        "ingredient_relations", not details,
        "; ".join(details) if details else "all relations hold")

    return WitnessReport((field_clause, ring_clause, relations_clause),
                         dec, outcome)


@cache
def builtin_examples() -> tuple[FactorizationPair, ...]:
    """Classic non-unique factorizations, smallest rings first.

    Each entry passes validate_inequivalent; the first is the standard
    6 = 2*3 = (1+sqrt(-5))(1-sqrt(-5)).  The pairs are built and checked
    once per process.
    """
    r5 = QuadraticIntRing(-5)
    r6 = QuadraticIntRing(-6)
    r15 = QuadraticIntRing(-15)
    w5 = r5.element(0, 1)
    w6 = r6.element(0, 1)
    omega = r15.element(0, 1)
    return (
        FactorizationPair(r5, 6, (2, 3), (1 + w5, 1 - w5)),
        FactorizationPair(r6, 6, (2, 3), (w6, -w6)),
        FactorizationPair(r15, 4, (2, 2), (omega, 1 - omega)),
    )


def run_pipeline(pair: FactorizationPair) -> tuple:
    """strip -> derive -> build -> verify, returning every stage's output;
    an equivalent pair raises ValueError before it is stripped."""
    if not validate_inequivalent(pair):
        raise ValueError("the factorizations are equivalent; no witness exists")
    stripped = strip_common_associates(pair)
    ell, a, p_s = derive_witness_params(stripped)
    data = build_witness_poly(ell, a, p_s, ring=stripped.ring)
    report = verify_witness(data)
    return stripped, data, report

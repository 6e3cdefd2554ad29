"""End-to-end acceptance gate.

Fifteen headline guarantees, each rechecked from scratch with its own
wall-clock budget.  Every test prints a single PASS/FAIL line (visible
even under pytest's capture) and fails if the budget is exceeded.
"""

import contextlib
import io
import math
import random
import time
from fractions import Fraction

import pytest

from polydecomp import (Decomposition, FactorizationPair, Polynomial, QQ, QT,
                        QuadraticField, QuadraticIntRing, RingDecideStatus,
                        ZT, ZT23, ZZ, compose, decompose_over_field,
                        embed_poly, hull_of, linear_relate,
                        monic_decompose, proper_inner_degrees,
                        quartic_field_decompose, quartic_ring_decide,
                        run_demo_q1, run_pipeline, verify_taylor_expansion)
from polydecomp import cli, decomp
from polydecomp.domains import _MR_EXACT_BELOW
from polydecomp.poly import _divrem_monic_in_place
from test_quadratic_reference import DS, RefInt, RefRing

R5 = QuadraticIntRing(-5)
K5 = QuadraticField(-5)
R6 = QuadraticIntRing(-6)
O15 = QuadraticIntRing(-15)


def _report(capsys, name: str, budget: float, body) -> None:
    start = time.perf_counter()
    error = None
    try:
        body()
    except BaseException as exc:
        error = exc
    elapsed = time.perf_counter() - start
    ok = error is None and elapsed < budget
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'} {name} "
              f"[{elapsed:.2f}s / budget {budget:g}s]")
    if error is not None:
        raise error
    assert elapsed < budget, (
        f"{name} took {elapsed:.2f}s, over the {budget:g}s budget")


def test_witness_quartic_reproduction(capsys):
    """The classic non-unique factorization in Z[sqrt(-5)] yields the
    frozen quartic, which splits over the field but not over the ring."""

    def body():
        pair = FactorizationPair(R5, R5.element(6), [2, 3],
                                 [R5.element(1, 1), R5.element(1, -1)])
        stripped, data, report = run_pipeline(pair)

        # independent symbolic expansion of (d y^2 + ell y), y = x^2 + c x,
        # with ell = 2, c = (1 + sqrt(-5))/2, d = (1 - sqrt(-5))^2
        one = K5.element(1)
        two = K5.element(2)
        wf = K5.element(0, 1)
        c = (one + wf) / two
        d = (one - wf) ** 2
        expected = Polynomial(
            K5, [K5.element(0), two * c, d * c * c + two, (d + d) * c, d],
            "x")
        lifted = embed_poly(data.f, K5)
        assert lifted == expected

        frozen = Polynomial(R5, [R5.element(0), R5.element(1, 1),
                                 R5.element(11), R5.element(6, -6),
                                 R5.element(-4, -2)], "x")
        assert data.f == frozen

        dec = quartic_field_decompose(lifted)
        assert dec is not None
        assert compose(dec.g, dec.h) == lifted
        assert dec.h == Polynomial(K5, [K5.element(0), c, one], "x")

        outcome = quartic_ring_decide(data.f)
        assert outcome.status is RingDecideStatus.INDECOMPOSABLE_OVER_RING
        assert report.passed

    _report(capsys, "witness-quartic-reproduction", 1.0, body)


def test_monic_roundtrip(capsys):
    """1000 random monic pairs over Q are recovered exactly."""

    def body():
        rng = random.Random(2026)

        def coeff():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        for _ in range(1000):
            dg, dh = rng.randint(2, 4), rng.randint(2, 4)
            g = Polynomial(QQ, [coeff() for _ in range(dg)] + [1], "x")
            h = Polynomial(QQ,
                           [0] + [coeff() for _ in range(dh - 1)] + [1], "x")
            dec = monic_decompose(compose(g, h), dh)
            assert dec is not None
            assert dec.g == g and dec.h == h

    _report(capsys, "monic-roundtrip-1000", 10.0, body)


def test_degree_400_field_decision(capsys):
    """A monic degree-400 composition over Q, g and h of degree 20, is
    decided at every proper inner degree: found at 20 only, exactly."""

    rng = random.Random(400)
    g = Polynomial(QQ, [rng.randint(-9, 9) for _ in range(20)] + [1], "x")
    h = Polynomial(QQ, [0] + [rng.randint(-9, 9) for _ in range(19)] + [1],
                   "x")
    f = compose(g, h)

    def body():
        found = {m: decompose_over_field(f, m)
                 for m in proper_inner_degrees(400)}
        assert found.pop(20) == Decomposition(g, h)
        assert all(dec is None for dec in found.values())

    _report(capsys, "degree-400-field-decision", 10.0, body)


def test_degree_1024_field_decision(capsys):
    """A monic degree-1024 composition over Q, g and h of degree 32, is
    decided at every proper inner degree: found at 32 only, exactly."""

    rng = random.Random(1024)
    g = Polynomial(QQ, [rng.randint(-9, 9) for _ in range(32)] + [1], "x")
    h = Polynomial(QQ, [0] + [rng.randint(-9, 9) for _ in range(31)] + [1],
                   "x")
    f = compose(g, h)

    def body():
        found = {m: decompose_over_field(f, m)
                 for m in proper_inner_degrees(1024)}
        assert found.pop(32) == Decomposition(g, h)
        assert all(dec is None for dec in found.values())

    _report(capsys, "degree-1024-field-decision", 2.0, body)


def _exact_monic_decompose(f, m):
    """monic_decompose as it ran over Q(sqrt(d)) and Q[t] before the
    integral lift: the root and the digits in the Q-algebra itself."""
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


def _lift_compositions(dom, element):
    """Monic compositions g(h) with (deg g, deg h) = (10, 10), (12, 8)
    and coefficients from element(rng), rng = random.Random(5)."""
    rng = random.Random(5)
    out = []
    for dg, dh in ((10, 10), (12, 8)):
        g, h = (Polynomial(dom, [element(rng) for _ in range(d)] + [dom.one],
                           "x") for d in (dg, dh))
        out.append((compose(g, h), h))
    return out


def _timed(call, *args):
    start = time.perf_counter()
    out = call(*args)
    return out, time.perf_counter() - start


def test_q_t_decisions_on_the_integral_lift(capsys):
    """Monic compositions over Q[t] of degree 100 and 96 with
    t-coefficients of degree 2: every wrong inner degree is rejected in
    under 0.1 s in all, and each hit is at least 3x faster than the
    exact path in Q[t]."""

    cases = _lift_compositions(
        QT, lambda rng: QT.element([rng.randint(-9, 9) for _ in range(3)]))

    def body():
        misses = 0.0
        for f, h in cases:
            for m in proper_inner_degrees(f.degree):
                dec, elapsed = _timed(monic_decompose, f, m)
                if m != h.degree:
                    assert dec is None
                    misses += elapsed
                    continue
                assert dec.h == h - h.constant_term
                exact, exact_elapsed = _timed(_exact_monic_decompose, f, m)
                assert dec == exact
                assert exact_elapsed >= 3 * elapsed, (exact_elapsed, elapsed)
        assert misses < 0.1, misses

    _report(capsys, "q-t-integral-lift", 30.0, body)


def test_quadratic_field_misses_on_the_integral_lift(capsys):
    """The same shapes over Q(sqrt(-5)): every wrong inner degree of both
    compositions is rejected in under 0.02 s in all."""

    cases = _lift_compositions(
        K5, lambda rng: K5.element(rng.randint(-9, 9), rng.randint(-9, 9)))

    def body():
        misses = 0.0
        for f, h in cases:
            for m in proper_inner_degrees(f.degree):
                if m != h.degree:
                    dec, elapsed = _timed(monic_decompose, f, m)
                    assert dec is None
                    misses += elapsed
            assert monic_decompose(f, h.degree).h == h - h.constant_term
        assert misses < 0.02, misses

    _report(capsys, "quadratic-field-integral-lift", 5.0, body)


def test_subring_composition_transfer(capsys):
    """200 compositions landing in Z[t^2,t^3][x] decompose over Q[t] with
    every recovered coefficient back in Z[t^2,t^3]."""

    def body():
        result = run_demo_q1(trials=200, seed=3)
        assert result["trials"] == 200
        assert result["failures"] == 0, result["detail"]

    _report(capsys, "subring-composition-transfer-200", 30.0, body)


def test_rational_span_identity(capsys):
    """Membership in Z[t^2,t^3] coincides with membership in its rational
    span, over 1000 random integer polynomials of degree <= 6.

    The span Q.Z[t^2,t^3] is the rational polynomials with no t^1 term;
    a rational multiple q of p lies in it when q times its denominator
    descends into Z[t^2,t^3]."""

    def body():
        rng = random.Random(4)
        hits = 0
        for _ in range(1000):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
            if len(coeffs) > 1 and rng.random() < 0.5:
                coeffs[1] = 0
            p = Polynomial(ZZ, coeffs, "t")
            in_sub = ZT23.is_element(p)
            q = embed_poly(p, QQ) * Fraction(1, rng.randint(1, 9))
            in_span = ZT23.descend(q * QT.denominator(q)) is not None
            assert in_sub == in_span == (ZT23.descend(p) is not None)
            assert ZT.is_element(p)
            hits += in_sub
        assert 0 < hits < 1000   # both sides of the equivalence exercised

    _report(capsys, "rational-span-identity-1000", 1.0, body)


def _oracle_quartic(f: Polynomial) -> bool:
    """Bounded exhaustive decision, independent of the library's criterion.

    Shifting the inner part by its constant term shows a quartic splits as
    two quadratics over the ring iff it does so with h(0) = 0.  Writing
    h = u x^2 + v x and g = p y^2 + q y + r gives

        D = p u^2,  E = 2 p u v,  C = p v^2 + q u,  B = q v,

    and the constant term is absorbed by r.  For each candidate u the
    remaining unknowns are forced, so it suffices to scan every u with
    norm(u)^2 <= norm(D) and test membership plus the B equation.  Either
    integral basis has |a|, |b| <= 2*sqrt(norm(u)) for u = a + b*w, so a
    box of coordinates holds every candidate; the ring's own norm filters.
    """
    ring = f.domain
    field = hull_of(ring)
    D, E, C, B = (field.coerce(f.coefficient(k)) for k in (4, 3, 2, 1))
    n = ring.norm(f.coefficient(4))
    r = 2 * math.isqrt(math.isqrt(n)) + 2
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            u = ring.element(a, b)
            if (a, b) == (0, 0) or ring.norm(u) ** 2 > n:
                continue
            u = field.coerce(u)
            p = D / (u * u)
            v = u * E / (D + D)
            q = (C - p * v * v) / u
            if B != q * v:
                continue
            if all(ring.descend(z) is not None for z in (p, v, q)):
                return True
    return False


def test_quartic_decision_agreement(capsys):
    """The closed-form quartic paths agree with generic decomposition over
    two fields, and with brute-force search over Z[sqrt(-5)], Z[sqrt(-6)]
    and O(-15)."""

    def body():
        rng = random.Random(5)

        def field_cases(dom, coeff, trials):
            found = 0
            for i in range(trials):
                if i % 2 == 0:
                    g = Polynomial(dom, [coeff(), coeff(),
                                         _nonzero(coeff)], "x")
                    h = Polynomial(dom, [coeff(), coeff(),
                                         _nonzero(coeff)], "x")
                    f = compose(g, h)
                else:
                    f = Polynomial(dom, [coeff() for _ in range(4)]
                                   + [_nonzero(coeff)], "x")
                direct = quartic_field_decompose(f)
                generic = decompose_over_field(f, 2)
                assert (direct is None) == (generic is None)
                if direct is not None:
                    assert direct.g == generic.g and direct.h == generic.h
                    assert compose(direct.g, direct.h) == f
                    found += 1
            assert found >= trials // 2   # every composed case must split

        def _nonzero(coeff):
            while True:
                c = coeff()
                if c != 0:
                    return c

        def qcoeff():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

        def kcoeff():
            return K5.element(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                              Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

        field_cases(QQ, qcoeff, 1000)
        field_cases(K5, kcoeff, 1000)

        cases = []
        for ring, trials in ((R5, 200), (R6, 100), (O15, 100)):
            def relt(lo, hi):
                return ring.element(rng.randint(lo, hi), rng.randint(lo, hi))

            for _ in range(trials):
                g = Polynomial(ring, [relt(-2, 2), relt(-2, 2),
                                      _nonzero(lambda: relt(-2, 2))], "x")
                h = Polynomial(ring, [relt(-2, 2), relt(-2, 2),
                                      _nonzero(lambda: relt(-2, 2))], "x")
                cases.append((compose(g, h), True))
            for _ in range(trials):
                f = Polynomial(ring, [relt(-3, 3) for _ in range(4)]
                               + [_nonzero(lambda: relt(-3, 3))], "x")
                cases.append((f, False))

        # quartic_ring_decide does not recompose its pair, so every pair
        # it returns is recomposed here, and over the ring
        recomposed = 0
        for f, built_by_composition in cases:
            outcome = quartic_ring_decide(f)
            decided = (outcome.status
                       is RingDecideStatus.DECOMPOSABLE_OVER_RING)
            assert decided == _oracle_quartic(f)
            if built_by_composition:
                assert decided
            if decided:
                dec = outcome.decomposition
                assert dec.g.domain is dec.h.domain is f.domain
                assert compose(dec.g, dec.h) == f
                recomposed += 1
        assert recomposed >= sum(built for _, built in cases)

    _report(capsys, "quartic-decision-agreement", 120.0, body)


def test_inner_factor_uniqueness(capsys):
    """Inserting a linear map between the factors is always detected, and
    the finite Taylor expansion holds on random instances."""

    def body():
        rng = random.Random(6)

        def coeff():
            return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

        def nonzero():
            while True:
                c = coeff()
                if c != 0:
                    return c

        for _ in range(500):
            dg, dh = rng.randint(2, 4), rng.randint(2, 4)
            g = Polynomial(QQ, [coeff() for _ in range(dg)] + [nonzero()],
                           "x")
            h = Polynomial(QQ, [coeff() for _ in range(dh)] + [nonzero()],
                           "x")
            a, b = nonzero(), coeff()
            H = h.scale(a) + Polynomial(QQ, [b], "x")
            G = compose(g, Polynomial(QQ, [-b / a, 1 / a], "x"))
            assert compose(G, H) == compose(g, h)
            assert linear_relate(h, H) == (a, b)

        for _ in range(500):
            G = Polynomial(QQ, [coeff() for _ in range(rng.randint(1, 5))]
                           + [nonzero()], "x")
            h = Polynomial(QQ, [coeff() for _ in range(rng.randint(1, 4))],
                           "x")
            h0 = Polynomial(QQ, [coeff() for _ in range(rng.randint(1, 3))],
                            "x")
            assert verify_taylor_expansion(G, h, h0, coeff())

    _report(capsys, "inner-factor-uniqueness-1000", 30.0, body)


def test_quadratic_ring_arithmetic(capsys):
    """Norm, exact division, bounded norm-equation search, and the four
    irreducibles behind the witness all behave as advertised."""

    def body():
        rng = random.Random(7)

        for _ in range(500):
            x = R5.element(rng.randint(-20, 20), rng.randint(-20, 20))
            y = R5.element(rng.randint(-20, 20), rng.randint(-20, 20))
            assert R5.norm(x * y) == R5.norm(x) * R5.norm(y)

        for _ in range(500):
            while True:
                x = R5.element(rng.randint(-6, 6), rng.randint(-6, 6))
                if R5.norm(x) != 0:
                    break
            y = R5.element(rng.randint(-6, 6), rng.randint(-6, 6))
            assert R5.divides_exact(x, x * y) == y
            z = R5.element(rng.randint(-9, 9), rng.randint(-9, 9))
            got = R5.divides_exact(x, z)
            landed = R5.descend(hull_of(R5).coerce(z)
                                / hull_of(R5).coerce(x))
            assert (got is None) == (landed is None)
            if got is not None:
                assert got * x == z and got == landed

        for k in range(1, 51):
            brute = {R5.element(a, b)
                     for a in range(-8, 9) for b in range(-8, 9)
                     if a * a + 5 * b * b == k}
            assert set(R5.elements_of_norm(k)) == brute

        for x in (R5.element(2), R5.element(3),
                  R5.element(1, 1), R5.element(1, -1)):
            assert R5.is_irreducible(x)
        assert not R5.is_irreducible(R5.element(6))

    _report(capsys, "quadratic-ring-arithmetic", 10.0, body)


@pytest.mark.parametrize("d", DS)
def test_norm_solver_on_both_bases(capsys, d):
    """elements_of_norm(k) for k <= 50 is every element of norm k, found
    by a box search with the reference norm, over Z[sqrt(d)] and O(d).

    The box |a|, |b| <= 15 holds them all: outside it the norm is at least
    (a^2 + b^2)/2 >= 128, the least being a^2 + ab + b^2 for d = -3.
    """

    def body():
        ring, ref = QuadraticIntRing(d), RefRing(d)
        by_norm = {}
        for a in range(-15, 16):
            for b in range(-15, 16):
                by_norm.setdefault(RefInt(ref, a, b).norm(), set()).add(
                    ring.element(a, b))
        for k in range(51):
            assert set(ring.elements_of_norm(k)) == by_norm.get(k, set()), k

    _report(capsys, f"norm-solver-box[{d}]", 5.0, body)


def test_ring_lead_past_the_old_divisor_bound(capsys):
    """Over Z[sqrt(-5)], the quartic with lead (2+w)(100+7w)^2, of norm
    944640225, decides; the trial-division search stopped at norm 10^6."""

    def body():
        w = R5.element(0, 1)
        g = Polynomial(R5, [R5.element(3), 1 - 2 * w, 2 + w], "x")
        h = Polynomial(R5, [R5.zero, w - 4, 100 + 7 * w], "x")
        f = compose(g, h)
        assert R5.norm(f.coefficient(4)) == 944640225
        out = quartic_ring_decide(f)
        assert out.status is RingDecideStatus.DECOMPOSABLE_OVER_RING
        assert (out.decomposition.g, out.decomposition.h) == (g, h)
        assert len(out.candidates) == 42

    _report(capsys, "ring-lead-norm-9.4e8", 1.0, body)


def test_twenty_digit_lead_over_z(capsys):
    """A quartic over Z whose lead has 20 digits decides in < 0.1 s."""
    u = 2 * 1000003
    g = Polynomial(ZZ, [5, -7, 9999991], "x")
    h = Polynomial(ZZ, [0, 3 * u, u], "x")
    f = compose(g, h)
    assert len(str(f.coefficient(4))) == 20

    def body():
        out = quartic_ring_decide(f)
        assert out.status is RingDecideStatus.DECOMPOSABLE_OVER_RING
        assert out.decomposition.certificate == f
        # u runs over the 18 divisors of 2^2 * 1000003^2 * 9999991
        assert len(out.candidates) == 18

    _report(capsys, "twenty-digit-lead-over-z", 0.1, body)


@pytest.mark.parametrize("d, classes", [(-1, 6336), (-3, 4032), (-2, 8448),
                                        (-5, 7040)])
def test_divisor_rich_lead(capsys, d, classes):
    """The divisors of 21621600 = 2^5 3^3 5^2 7 11 13, norm 4.7e14,
    enumerate in < 10 s: each class divides it, no two are associates, and
    the complement x/u of every class is again a class."""
    ring = QuadraticIntRing(d)
    x = ring.element(21621600)

    def body():
        divisors = ring.divisors_up_to_associates(x)
        assert len(divisors) == classes
        keys = {(u.a, u.b) for u in divisors}
        assert len(keys) == classes
        assert [u.norm() for u in divisors] == \
            sorted(u.norm() for u in divisors)
        for u in divisors:
            rep = ring.associate_representative(ring.divides_exact(u, x))
            assert (rep.a, rep.b) in keys

    _report(capsys, f"divisor-rich-lead-{ring.name}", 10.0, body)


@pytest.mark.parametrize("ring, lead, message", [
    ("Z", str(_MR_EXACT_BELOW),
     f"|{_MR_EXACT_BELOW}| >= {_MR_EXACT_BELOW}, below which factoring is "
     "exact"),
    ("Z[sqrt(-5)]", str(2 ** 30), "norm 1152921504606846976 > "
                                  "1000000000000000"),
])
def test_lead_past_the_divisor_bound_exits_1(capsys, ring, lead, message):
    """A field-decomposable quartic whose lead is past the bound exits 1
    with the message that names the bound, and no traceback."""

    def body():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(["quartic", "--ring", ring, f"{lead}*x^4+x^2"])
        assert (code, out.getvalue()) == (1, "")
        assert err.getvalue() == \
            f"error: divisor search bound exceeded: {message}\n"

    _report(capsys, f"lead-past-the-bound-{ring}", 1.0, body)


def test_t_ring_expression_parses_on_integer_monomials(capsys):
    """(x+t)^64*(x-t^2)^64 over Z[t], 65 * 65 products of terms with int
    coefficients, parses in < 0.5 s."""

    def body():
        f = cli.parse_poly("(x+t)^64*(x-t^2)^64", "Z[t]")
        assert f.degree == 128 and f.leading_coefficient == ZT.one
        # x^127: 64*t from the first factor, -64*t^2 from the second
        assert f.coefficient(127) == ZT.element([0, 64, -64])
        assert f.constant_term == ZT.element([0] * 192 + [1])

    _report(capsys, "t-ring-expression-parse", 0.5, body)

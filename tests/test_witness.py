"""Witness construction: from double factorizations to quartic separators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydecomp import (CapabilityError, FactorizationPair, Polynomial, QQ,
                        QuadraticField, QuadraticIntRing, RingDecideStatus,
                        WitnessData, ZT, ZT23, ZZ,
                        build_witness_poly, builtin_examples, compose,
                        derive_witness_params, embed_poly, hull_of,
                        quartic_field_decompose, quartic_ring_decide,
                        run_pipeline, strip_common_associates,
                        validate_inequivalent, verify_witness)
from polydecomp import witness
from polydecomp.domains import _MR_EXACT_BELOW
from polydecomp.witness import Clause, WitnessReport

R5 = QuadraticIntRing(-5)
K5 = QuadraticField(-5)
R6 = QuadraticIntRing(-6)
O15 = QuadraticIntRing(-15)


def w5(a, b=0):
    return R5.element(a, b)


def pair5():
    return FactorizationPair(R5, 6, (2, 3), (w5(1, 1), w5(1, -1)))


class TestFactorizationPair:
    def test_coerces_plain_ints(self):
        p = pair5()
        assert p.element == w5(6)
        assert p.first == (w5(2), w5(3))

    def test_rejects_wrong_products(self):
        with pytest.raises(ValueError):
            FactorizationPair(R5, 6, (2, 2), (w5(1, 1), w5(1, -1)))

    def test_rejects_units_and_zero(self):
        with pytest.raises(ValueError):
            FactorizationPair(ZZ, 6, (1, 6), (2, 3))
        with pytest.raises(ValueError):
            FactorizationPair(ZZ, 0, (0,), (0,))

    def test_rejects_reducible_factors(self):
        with pytest.raises(ValueError):
            FactorizationPair(ZZ, 12, (2, 6), (3, 4))

    def test_product_up_to_unit_is_accepted(self):
        p = FactorizationPair(ZZ, 6, (-2, 3), (2, 3))
        assert p.element == 6


#: Rings without divisor enumeration, where no witness can be built.
NO_DIVISORS = {"Q": QQ, "Q(sqrt(-5))": K5, "Z[t]": ZT, "Z[t2,t3]": ZT23}


def _no_witness_over(ring):
    return (f"{ring.name} does not support factorization witnesses; use Z "
            f"or an imaginary-quadratic ring")


class TestRingsWithoutDivisorEnumeration:
    """Every witness construction refuses such a ring with the package's
    CapabilityError, and verify_witness reports it instead of raising."""

    @pytest.mark.parametrize("name", sorted(NO_DIVISORS))
    def test_factorization_pair_refuses(self, name):
        ring = NO_DIVISORS[name]
        with pytest.raises(CapabilityError) as info:
            FactorizationPair(ring, 6, (2, 3), (3, 2))
        assert str(info.value) == _no_witness_over(ring)

    @pytest.mark.parametrize("name", sorted(NO_DIVISORS))
    def test_build_refuses(self, name):
        ring = NO_DIVISORS[name]
        with pytest.raises(CapabilityError) as info:
            build_witness_poly(2, 1, 3, ring)
        assert str(info.value) == _no_witness_over(ring)

    @pytest.mark.parametrize("name", sorted(NO_DIVISORS))
    def test_verify_reports_in_the_relations_clause(self, name):
        # the expansion of (9 x^2 + 2 x) o (x^2 + 2 x), with every
        # ingredient in the ring
        ring = NO_DIVISORS[name]
        data = WitnessData(ring=ring, ell=ring.coerce(2), a=ring.coerce(4),
                           p_s=ring.coerce(3), c=hull_of(ring).coerce(2),
                           d=ring.coerce(9),
                           f=Polynomial(ring, [0, 4, 38, 36, 9], "x"))
        report = verify_witness(data)
        assert not report.passed
        relations = report.clauses[2]
        assert relations == Clause("ingredient_relations", False,
                                   _no_witness_over(ring))


class TestInequivalence:
    def test_classic_pair_is_inequivalent(self):
        assert validate_inequivalent(pair5())

    def test_association_reordering_is_equivalent(self):
        p = FactorizationPair(ZZ, 6, (2, 3), (-3, -2))
        assert not validate_inequivalent(p)

    def test_matching_is_a_bijection_not_a_surjection(self):
        # both lists repeat a factor with different multiplicity
        p = FactorizationPair(ZZ, 8, (2, 2, 2), (-2, 2, 2))
        assert not validate_inequivalent(p)


def reference_max_matching(ring, first, second):
    """Size of a maximum matching by associateness, by augmenting paths."""
    adjacency = [[j for j, q in enumerate(second) if ring.are_associates(p, q)]
                 for p in first]
    match_of = [-1] * len(second)

    def augment(i, seen):
        for j in adjacency[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_of[j] == -1 or augment(match_of[j], seen):
                match_of[j] = i
                return True
        return False

    return sum(1 for i in range(len(first)) if augment(i, set()))


def o15(a, b=0):
    return O15.element(a, b)


#: Per ring: irreducibles, and pairs of factor lists with associate
#: products (o15(-1, 2) is sqrt(-15)).
ASSOCIATE_BLOCKS = {
    "Z": (ZZ, (2, 3, 5, 7), ()),
    "Z[sqrt(-5)]": (
        R5, (2, 3, 7, w5(1, 1), w5(1, -1), w5(2, 1), w5(2, -1), w5(3, 1),
             w5(3, -1)),
        (((2, 3), (w5(1, 1), w5(1, -1))), ((3, 3), (w5(2, 1), w5(2, -1))),
         ((2, 7), (w5(3, 1), w5(3, -1))))),
    "O(-15)": (
        O15, (2, 3, 5, o15(0, 1), o15(1, -1), o15(-1, 2)),
        (((2, 2), (o15(0, 1), o15(1, -1))), ((3, 5), (o15(-1, 2),) * 2))),
}


@st.composite
def factorization_pairs(draw, ring_name):
    """Two factorizations of one element, shuffled and twisted by units.

    Each block puts an irreducible on both sides, or one side of a
    relation on each, so some pairs are inequivalent."""
    ring, atoms, relations = ASSOCIATE_BLOCKS[ring_name]
    unit = st.sampled_from(ring.elements_of_norm(1)).map(ring.coerce)
    first, second = [], []
    for _ in range(draw(st.integers(1, 4))):
        if relations and draw(st.booleans()):
            block = draw(st.sampled_from(relations))
            left, right = draw(st.sampled_from(block)), draw(st.sampled_from(block))
        else:
            left = right = (draw(st.sampled_from(atoms)),)
        first += [ring.coerce(x) * draw(unit) for x in left]
        second += [ring.coerce(x) * draw(unit) for x in right]
    first, second = draw(st.permutations(first)), draw(st.permutations(second))
    element = ring.one
    for x in first:
        element = element * x
    return FactorizationPair(ring, element, tuple(first), tuple(second))


class TestOneCancellation:
    @pytest.mark.parametrize("ring_name", sorted(ASSOCIATE_BLOCKS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_greedy_cancellation_agrees_with_maximum_matching(self, ring_name,
                                                              data):
        pair = data.draw(factorization_pairs(ring_name))
        n = len(pair.first)
        by_matching = (len(pair.second) != n or
                       reference_max_matching(pair.ring, pair.first,
                                           pair.second) < n)
        assert validate_inequivalent(pair) == by_matching
        try:
            strip_common_associates(pair)
        except ValueError:
            assert not by_matching
        else:
            assert by_matching


class TestStripping:
    def test_nothing_common_in_classic_pair(self):
        s = strip_common_associates(pair5())
        assert s.first == (w5(2), w5(3))
        assert s.second == (w5(1, 1), w5(1, -1))
        assert s.element == w5(6)

    def test_common_factor_is_cancelled(self):
        p = FactorizationPair(R5, 12, (2, 2, 3),
                              (w5(2), w5(1, 1), w5(1, -1)))
        s = strip_common_associates(p)
        assert s.first == (w5(2), w5(3))
        assert s.second == (w5(1, 1), w5(1, -1))
        assert s.element == w5(6)

    def test_fully_equivalent_raises(self):
        p = FactorizationPair(ZZ, 6, (2, 3), (-3, -2))
        with pytest.raises(ValueError):
            strip_common_associates(p)

    def test_stripping_checks_no_factor_again(self, monkeypatch):
        pairs = builtin_examples()
        calls = []
        original = QuadraticIntRing.is_irreducible

        def counted(ring, x):
            calls.append(x)
            return original(ring, x)

        monkeypatch.setattr(QuadraticIntRing, "is_irreducible", counted)
        for pair in pairs:
            s = strip_common_associates(pair)
            assert (s.element, s.first, s.second) \
                == (pair.element, pair.first, pair.second)
        assert calls == []


class TestDeriveParams:
    def test_classic_example(self):
        ell, a, p_s = derive_witness_params(strip_common_associates(pair5()))
        assert ell == w5(2)
        assert a == w5(1, 1)
        assert p_s == w5(1, -1)

    def test_reversed_orientation(self):
        p = FactorizationPair(R5, 6, (w5(1, 1), w5(1, -1)), (2, 3))
        ell, a, p_s = derive_witness_params(strip_common_associates(p))
        # ell = 1+w divides 2*3 but neither 2 nor 3, so s = 2
        assert ell == w5(1, 1)
        assert a == w5(2)
        assert p_s == w5(3)
        assert R5.divides_exact(ell, a * p_s) is not None
        assert R5.divides_exact(ell, a) is None
        assert R5.divides_exact(ell, p_s) is None

    def test_reordered_opposite_list(self):
        p = FactorizationPair(R5, 6, (2, 3), (w5(1, -1), w5(1, 1)))
        ell, a, p_s = derive_witness_params(strip_common_associates(p))
        assert (ell, a, p_s) == (w5(2), w5(1, -1), w5(1, 1))


class TestBuildWitness:
    def test_classic_witness_polynomial(self):
        data = build_witness_poly(w5(2), w5(1, 1), w5(1, -1), R5)
        assert data.f == Polynomial(R5, [w5(0), w5(1, 1), w5(11), w5(6, -6),
                                         w5(-4, -2)], "x")
        assert data.c == K5.element(Fraction(1, 2), Fraction(1, 2))
        assert data.d == w5(-4, -2)
        # coefficient of x^2 is d*c^2 + ell = 9 + 2
        assert data.f.coefficient(2) == w5(11)

    def test_expansion_identity(self):
        # f = d*x^4 + 2*d*c*x^3 + (d*c^2 + ell)*x^2 + ell*c*x
        ell, a, p_s = w5(2), w5(1, 1), w5(1, -1)
        data = build_witness_poly(ell, a, p_s, R5)
        c = K5.element(Fraction(1, 2), Fraction(1, 2))
        d = hull_of(R5).coerce(p_s * p_s)
        ellf = hull_of(R5).coerce(ell)
        g = Polynomial(K5, [K5.element(0), ellf, d], "x")
        h = Polynomial(K5, [K5.element(0), c, K5.element(1)], "x")
        lifted = compose(g, h)
        assert ([hull_of(R5).coerce(x) for x in data.f.coeffs]
                == list(lifted.coeffs))

    def test_guards(self):
        with pytest.raises(ValueError):
            build_witness_poly(2, 4, 3, ring=ZZ)       # ell divides a
        with pytest.raises(ValueError):
            build_witness_poly(2, 3, 4, ring=ZZ)       # ell divides p_s
        with pytest.raises(ValueError):
            build_witness_poly(2, 3, 5, ring=ZZ)       # ell does not divide a*p_s
        with pytest.raises(ValueError):
            build_witness_poly(1, 3, 5, ring=ZZ)       # ell is a unit
        with pytest.raises(ValueError):
            build_witness_poly(0, 3, 5, ring=ZZ)


class TestVerifyWitness:
    def test_classic_witness_verifies(self):
        stripped, data, report = run_pipeline(pair5())
        assert report.passed
        names = [c.name for c in report.clauses]
        assert names == ["field_decomposition", "ring_indecomposability",
                         "ingredient_relations"]
        assert all(c.passed for c in report.clauses)
        assert report.ring_outcome.status \
            is RingDecideStatus.INDECOMPOSABLE_OVER_RING
        assert data.c == K5.element(Fraction(1, 2), Fraction(1, 2))
        assert data.d == w5(-4, -2)

    def test_all_builtins_verify(self):
        for pair in builtin_examples():
            stripped, data, report = run_pipeline(pair)
            assert report.passed, pair.ring.name
            out = quartic_ring_decide(data.f)
            assert out.status is RingDecideStatus.INDECOMPOSABLE_OVER_RING

    def test_builtin_rings(self):
        names = [p.ring.name for p in builtin_examples()]
        assert names == ["Z[sqrt(-5)]", "Z[sqrt(-6)]", "O(-15)"]

    def test_builtins_are_built_and_checked_once(self, monkeypatch):
        first = builtin_examples()
        calls = []
        check = QuadraticIntRing.is_irreducible
        monkeypatch.setattr(QuadraticIntRing, "is_irreducible",
                            lambda self, x: calls.append(x) or check(self, x))
        again = builtin_examples()
        assert calls == []
        assert again is first and isinstance(first, tuple)

    def test_unit_twists_and_reorderings_still_verify(self):
        rng = random.Random(67)
        for pair in builtin_examples():
            ring = pair.ring
            units = ring.units()
            for _ in range(20):
                first = list(pair.first)
                second = list(pair.second)
                rng.shuffle(first)
                rng.shuffle(second)
                # twist by units in compensating pairs
                u = units[rng.randrange(len(units))]
                uinv = ring.divides_exact(u, ring.one)
                if len(first) >= 2:
                    first[0] = first[0] * u
                    first[1] = first[1] * uinv
                v = units[rng.randrange(len(units))]
                vinv = ring.divides_exact(v, ring.one)
                if len(second) >= 2:
                    second[0] = second[0] * v
                    second[1] = second[1] * vinv
                twisted = FactorizationPair(ring, pair.element,
                                            tuple(first), tuple(second))
                assert validate_inequivalent(twisted)
                _, data, report = run_pipeline(twisted)
                assert report.passed

    def test_fake_witness_fails_ring_clause(self):
        # (2x^2 + x) o (x^2 + 3x) decomposes over Z itself, so a report
        # built from it must flag the over-ring clause
        g = Polynomial(ZZ, [0, 1, 2], "x")
        h = Polynomial(ZZ, [0, 3, 1], "x")
        f = compose(g, h)
        fake = WitnessData(ring=ZZ, ell=1, a=6, p_s=3,
                           c=Fraction(3), d=9, f=f)
        report = verify_witness(fake)
        assert not report.passed
        failed = {c.name for c in report.clauses if not c.passed}
        assert "ring_indecomposability" in failed

    def test_report_mentions_all_three_clauses_even_on_failure(self):
        g = Polynomial(ZZ, [0, 1, 2], "x")
        h = Polynomial(ZZ, [0, 3, 1], "x")
        fake = WitnessData(ring=ZZ, ell=1, a=6, p_s=3, c=Fraction(3), d=9,
                           f=compose(g, h))
        report = verify_witness(fake)
        assert len(report.clauses) == 3


def reference_verify_witness(w):
    """verify_witness as it was before it read the ring decision's field
    evidence: it runs the closed form itself and spells out every relation
    and the expansion inline."""
    ring = w.ring
    field = hull_of(ring)
    clauses = []
    fK = embed_poly(w.f, field)
    dec = None
    try:
        dec = quartic_field_decompose(fK)
    except ValueError as exc:
        clauses.append(Clause("field_decomposition", False, str(exc)))
    if dec is not None:
        inner_ok = dec.h.coefficient(1) == w.c
        clauses.append(Clause(
            "field_decomposition", inner_ok,
            f"inner factor {dec.h} {'matches' if inner_ok else 'differs from'}"
            f" x^2 + c*x"))
    elif not clauses:
        clauses.append(Clause("field_decomposition", False,
                              "the quartic does not decompose over the field"))
    outcome = None
    try:
        outcome = quartic_ring_decide(w.f)
        ring_ok = outcome.status is RingDecideStatus.INDECOMPOSABLE_OVER_RING
        clauses.append(Clause("ring_indecomposability", ring_ok,
                              f"over-ring decision: {outcome.status.value}"))
    except (ValueError, TypeError) as exc:
        clauses.append(Clause("ring_indecomposability", False, str(exc)))
    details = []
    if ring.divides_exact(w.ell, w.a * w.p_s) is None:
        details.append("ell does not divide a*p_s")
    if ring.divides_exact(w.ell, w.a) is not None:
        details.append("ell divides a")
    if ring.divides_exact(w.ell, w.p_s) is not None:
        details.append("ell divides p_s")
    try:
        if not (ring.is_irreducible(w.ell) and ring.is_irreducible(w.p_s)):
            details.append("ell or p_s is reducible")
        elif ring.are_associates(w.ell, w.p_s):
            details.append("ell and p_s are associates")
    except ValueError as exc:
        details.append(str(exc))
    if w.d != w.p_s * w.p_s:
        details.append("d is not p_s^2")
    expansion = compose(
        Polynomial(field, [field.zero, field.coerce(w.ell), field.coerce(w.d)],
                   "x"),
        Polynomial(field, [field.zero, w.c, field.one], "x"))
    if fK != expansion:
        details.append("f is not the expansion of (d x^2 + ell x) o (x^2 + c x)")
    clauses.append(Clause("ingredient_relations", not details,
                          "; ".join(details) if details else "all relations hold"))
    return WitnessReport(tuple(clauses), dec, outcome)


def _tampered(data, rng, change=None):
    """data with one ingredient or coefficient changed, or unchanged."""
    ring, field = data.ring, hull_of(data.ring)
    if change is None:
        change = rng.randrange(7)
    if change == 0:
        return WitnessData(data.ring, data.ell * 3, data.a, data.p_s,
                           data.c, data.d, data.f)
    if change == 1:
        return WitnessData(data.ring, data.ell, data.a, data.p_s,
                           data.c + field.one, data.d, data.f)
    if change == 2:
        return WitnessData(data.ring, data.ell, data.a, data.p_s,
                           data.c, data.d + ring.one, data.f)
    if change == 3:
        return WitnessData(data.ring, data.ell, data.p_s, data.a,
                           data.c, data.d, data.f)
    if change == 4:
        k = rng.randrange(5)
        bumped = Polynomial(ring, [c + ring.one if i == k else c
                                   for i, c in enumerate(data.f.coeffs)], "x")
        return WitnessData(data.ring, data.ell, data.a, data.p_s,
                           data.c, data.d, bumped)
    if change == 5:
        # ell*c moves by 1/2 and leaves the ring
        return WitnessData(data.ring, data.ell, data.a, data.p_s,
                           data.c + field.divides_exact(data.ell * 2, ring.one),
                           data.d, data.f)
    return data


#: A prime whose square is past the bound of the divisor search over Z
#: (factoring is exact only below _MR_EXACT_BELOW).
BIG_PRIME = 1821275395081


def _witness_past_the_divisor_bound():
    """The Z witness with ell = 2q, a = 2, p_s = q: its lead q^2 is past
    the divisor search bound, so its ring decision raises."""
    assert BIG_PRIME ** 2 >= _MR_EXACT_BELOW
    return build_witness_poly(2 * BIG_PRIME, 2, BIG_PRIME, ring=ZZ)


class TestVerifyOnce:
    def test_report_matches_the_reference(self):
        rng = random.Random(71)
        cases = []
        for pair in builtin_examples():
            _, data, _ = run_pipeline(pair)
            cases += [data] + [_tampered(data, rng) for _ in range(12)]
        # over Z, a lead past the divisor search bound makes the ring
        # decision raise, so the field pair comes from the closed form
        cases.append(_witness_past_the_divisor_bound())
        g = Polynomial(ZZ, [0, 1, 2], "x")
        h = Polynomial(ZZ, [0, 3, 1], "x")
        cases.append(WitnessData(ring=ZZ, ell=1, a=6, p_s=3, c=Fraction(3),
                                 d=9, f=compose(g, h)))
        cases.append(WitnessData(ring=ZZ, ell=2, a=1, p_s=1, c=Fraction(1),
                                 d=1, f=Polynomial(ZZ, [0, 1, 0, 0, 1], "x")))
        for data in cases:
            assert verify_witness(data) == reference_verify_witness(data)

    def test_ell_c_outside_the_ring_fails_clause_3_like_the_reference(self):
        rng = random.Random(73)
        for pair in builtin_examples():
            _, data, _ = run_pipeline(pair)
            moved = _tampered(data, rng, change=5)
            assert data.ring.descend(moved.ell * moved.c) is None
            report = verify_witness(moved)
            assert report == reference_verify_witness(moved)
            assert not report.clauses[2].passed
            assert report.clauses[2].detail == \
                "f is not the expansion of (d x^2 + ell x) o (x^2 + c x)"

    def test_closed_form_runs_only_when_the_ring_decision_raised(
            self, monkeypatch):
        calls = []

        def counted(f):
            calls.append(f)
            return quartic_field_decompose(f)

        monkeypatch.setattr(witness, "quartic_field_decompose", counted)
        for pair in builtin_examples():
            assert run_pipeline(pair)[2].passed
        assert calls == []
        # the lead 1009^2 was past the old bound of 10^6; now the ring
        # decision answers, so the closed form does not run
        report = verify_witness(build_witness_poly(2018, 2, 1009, ring=ZZ))
        assert report.clauses[1].detail == \
            "over-ring decision: decomposable_over_ring"
        assert calls == []
        report = verify_witness(_witness_past_the_divisor_bound())
        assert len(calls) == 1
        assert report.clauses[0].passed
        assert report.clauses[1].detail == (
            f"divisor search bound exceeded: |{BIG_PRIME ** 2}| >= "
            f"{_MR_EXACT_BELOW}, below which factoring is exact")


class TestRingArithmetic:
    """Building and checking a witness stays in the ring, except for the
    one division that forms c."""

    def test_verify_composes_only_over_the_ring(self, monkeypatch):
        domains = []

        def counted(g, h):
            domains.append((g.domain, h.domain))
            return compose(g, h)

        monkeypatch.setattr(witness, "compose", counted)
        for pair in builtin_examples():
            _, data, report = run_pipeline(pair)
            assert report.passed
            assert domains == [(pair.ring, pair.ring)]
            del domains[:]

    def test_build_divides_once_in_the_hull(self, hull_divisions):
        for pair in builtin_examples():
            stripped = strip_common_associates(pair)
            ell, a, p_s = derive_witness_params(stripped)
            del hull_divisions[:]
            data = build_witness_poly(ell, a, p_s, ring=stripped.ring)
            assert hull_divisions == [hull_of(pair.ring)]
            assert data.c == hull_of(pair.ring).divides_exact(ell, a)

    def test_integer_witness_keeps_c_a_fraction(self, hull_divisions):
        data = build_witness_poly(2018, 2, 1009, ring=ZZ)
        assert hull_divisions == [QQ]
        assert data.c == Fraction(1, 1009) and type(data.c) is Fraction
        # over Z, ell = 2018 is reducible, so only the expansion is checked
        assert witness._is_expansion(ZZ, data)
        assert "expansion" not in verify_witness(data).clauses[2].detail


class TestPipeline:
    def test_equivalent_pair_raises(self):
        p = FactorizationPair(ZZ, 6, (2, 3), (-3, -2))
        with pytest.raises(ValueError):
            run_pipeline(p)

    def test_pipeline_strips_first(self):
        p = FactorizationPair(R5, 12, (2, 2, 3),
                              (w5(2), w5(1, 1), w5(1, -1)))
        stripped, data, report = run_pipeline(p)
        assert stripped.element == w5(6)
        assert report.passed

    def test_witness_polynomial_matches_build(self):
        _, data, _ = run_pipeline(pair5())
        rebuilt = build_witness_poly(data.ell, data.a, data.p_s, data.ring)
        assert data.f == rebuilt.f and data.c == rebuilt.c

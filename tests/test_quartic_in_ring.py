"""The over-ring quartic decision and the witness quartic in ring arithmetic.

Both are checked against copies of the versions that worked in the
fraction field: the closed form over the field, then one field division
and one descent per candidate; the witness expanded over the field and
descended.  The decision, its candidate table, its pair, its field
evidence and the witness data must all be equal.
"""

import copy
import dataclasses
import gc
import pickle
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydecomp import (CandidateCheck, Decomposition, Polynomial,
                        QuadraticIntRing, RingDecideOutcome,
                        RingDecideStatus, WitnessData, ZZ,
                        build_witness_poly, builtin_examples, compose,
                        decompose_over_ring, derive_witness_params,
                        descend_poly, embed_poly, hull_of,
                        quartic_field_decompose, quartic_ring_decide,
                        run_pipeline, strip_common_associates)
from polydecomp import decomp
from polydecomp.witness import _relation_failures

RINGS = {
    "Z": ZZ,
    "Z[sqrt(-5)]": QuadraticIntRing(-5),
    "Z[sqrt(-6)]": QuadraticIntRing(-6),
    "O(-15)": QuadraticIntRing(-15),
}


def field_quartic_ring_decide(f):
    """The over-ring decision with E and C read off the field closed form,
    and conditions (ii) and (iii) tested by a field division or product
    and a descent, per candidate."""
    ring = f.domain
    field = hull_of(ring)
    dec = quartic_field_decompose(embed_poly(f, field))
    if dec is None:
        return RingDecideOutcome(RingDecideStatus.INDECOMPOSABLE_OVER_FIELD,
                                 None, None, ())
    E = dec.g.coefficient(1)
    C = dec.h.coefficient(1)
    lead = f.leading_coefficient
    candidates = []
    found = None
    for u in ring.divisors_up_to_associates(lead):
        uK = field.coerce(u)
        D_by_u2 = ring.divides_exact(u * u, lead)
        E_by_u = ring.descend(field.divides_exact(uK, E))
        uC = ring.descend(uK * C)
        check = CandidateCheck(u, D_by_u2 is not None, E_by_u is not None,
                               uC is not None)
        candidates.append(check)
        if check.passed and found is None:
            found = Decomposition(
                Polynomial(ring, [f.constant_term, E_by_u, D_by_u2], f.var),
                Polynomial(ring, [ring.zero, uC, u], f.var))
    if found is None:
        return RingDecideOutcome(RingDecideStatus.INDECOMPOSABLE_OVER_RING,
                                 None, dec, tuple(candidates))
    assert found.certificate == f
    return RingDecideOutcome(RingDecideStatus.DECOMPOSABLE_OVER_RING,
                             found, dec, tuple(candidates))


def _expansion(field, ell, c, d):
    """(d x^2 + ell x) o (x^2 + c x) over the field."""
    outer = Polynomial(field, [field.zero, field.coerce(ell), field.coerce(d)],
                       "x")
    inner = Polynomial(field, [field.zero, c, field.one], "x")
    return compose(outer, inner)


def field_build_witness_poly(ell, a, p_s, ring):
    """The witness quartic expanded over the field and descended."""
    ell, a, p_s = ring.coerce(ell), ring.coerce(a), ring.coerce(p_s)
    if ring.norm(ell) == 0 or ring.is_unit(ell):
        raise ValueError("ell must be a nonzero nonunit")
    failures = _relation_failures(ring, ell, a, p_s)
    if failures:
        raise ValueError("; ".join(failures))
    field = hull_of(ring)
    c = field.divides_exact(field.coerce(ell), field.coerce(a))
    d = p_s * p_s
    f = descend_poly(_expansion(field, ell, c, d), ring)
    assert f is not None
    return WitnessData(ring=ring, ell=ell, a=a, p_s=p_s, c=c, d=d, f=f)


def outcome(call, *args, **kwargs):
    """The result of the call, or the type and text of its ValueError."""
    try:
        return call(*args, **kwargs)
    except ValueError as exc:
        return ("ValueError", str(exc))


def elements(ring, r):
    if ring is ZZ:
        return st.integers(-r, r)
    return st.builds(ring.element, st.integers(-r, r), st.integers(-r, r))


def nonzero(ring, r):
    return elements(ring, r).filter(lambda x: x != ring.zero)


def products(ring, r, lo, hi):
    """Products of lo..hi small nonzero elements: leads with many divisor
    classes."""
    def multiply(xs):
        out = ring.one
        for x in xs:
            out = out * x
        return out
    return st.lists(nonzero(ring, r), min_size=lo, max_size=hi).map(multiply)


def composed(ring, g0, g1, g2, h0, h1, u):
    """(g2 y^2 + g1 y + g0) o (u x^2 + h1 x + h0)."""
    return compose(Polynomial(ring, [g0, g1, g2], "x"),
                   Polynomial(ring, [h0, h1, u], "x"))


def field_quartic(ring, a0, q, k, e, p):
    """(q^2 k y^2 + q e y + a0) o (x^2 + (p/q) x), which lies in R[x]."""
    return Polynomial(ring, [a0, e * p, k * p * p + q * e, q * k * p * 2,
                             q * q * k], "x")


def _witness_bases():
    """Per ring, (ell, a, p_s, a*p_s/ell) of its builtin witness; over Z,
    where no witness exists, all ones."""
    bases = {ZZ: (1, 1, 1, 1)}
    for pair in builtin_examples():
        stripped = strip_common_associates(pair)
        ell, a, p_s = derive_witness_params(stripped)
        ring = stripped.ring
        bases[ring] = (ell, a, p_s, ring.divides_exact(ell, a * p_s))
    return bases


WITNESS_BASES = _witness_bases()


def witness_quartic(ring, a0, x, y, r, s):
    """(p_s^2 y^2 + ell y + a0) o (x^2 + (a/ell) x) for the ring's witness
    triple times x y, x r and y s, with t = a p_s/ell."""
    ell, a, p_s, t = WITNESS_BASES[ring]
    ell, a, p_s, t = ell * x * y, a * x * r, p_s * y * s, t * r * s
    return Polynomial(ring, [a0, a, t * t + ell, p_s * t * 2, p_s * p_s], "x")


def quartics(ring):
    """Quartics that decompose over the ring, over the field only, or not
    at all; leads are products of small elements, so they have many
    divisor classes, and composed ones have a composite u."""
    small, tiny, unitish = elements(ring, 3), nonzero(ring, 2), nonzero(ring, 1)
    return st.one_of(
        st.builds(composed, st.just(ring), small, small, tiny, small, small,
                  products(ring, 2, 2, 2)),
        st.builds(field_quartic, st.just(ring), small,
                  products(ring, 2, 1, 2), products(ring, 2, 1, 2), small,
                  small),
        st.builds(witness_quartic, st.just(ring), small, unitish, unitish,
                  unitish, unitish),
        st.builds(lambda lower, lead: Polynomial(ring, lower + [lead], "x"),
                  st.lists(elements(ring, 9), min_size=4, max_size=4),
                  products(ring, 3, 1, 3)))


@st.composite
def witness_triples(draw, ring):
    """(x*y, x*r, y*s): ell always divides a*p_s, and the other two
    relations hold or fail as drawn."""
    x, y, r, s = (draw(nonzero(ring, 3)) for _ in range(4))
    return x * y, x * r, y * s


class TestAgainstTheFieldVersion:
    @pytest.mark.parametrize("name", sorted(RINGS))
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_same_decision_table_pair_and_evidence(self, name, data):
        ring = RINGS[name]
        f = data.draw(quartics(ring))
        assert outcome(quartic_ring_decide, f) \
            == outcome(field_quartic_ring_decide, f)

    @pytest.mark.parametrize("name", sorted(RINGS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_witness_data(self, name, data):
        ring = RINGS[name]
        ell, a, p_s = data.draw(witness_triples(ring))
        assert outcome(build_witness_poly, ell, a, p_s, ring=ring) \
            == outcome(field_build_witness_poly, ell, a, p_s, ring)

    def test_every_status_is_reached(self):
        # Z is a UFD, so a quartic over Z that decomposes over Q also
        # decomposes over Z; the orders reach all three verdicts
        rng = random.Random(3)
        for ring in RINGS.values():
            seen = {quartic_ring_decide(f).status
                    for f in _fixed_quartics(ring, rng, 60)}
            expect = set(RingDecideStatus)
            if ring is ZZ:
                expect.discard(RingDecideStatus.INDECOMPOSABLE_OVER_RING)
            assert seen == expect

    def test_builtin_witnesses_match(self):
        for pair in builtin_examples():
            _, data, report = run_pipeline(pair)
            assert report.passed
            assert data == field_build_witness_poly(data.ell, data.a,
                                                    data.p_s, data.ring)


def _fixed_quartics(ring, rng, count):
    """count quartics of the four kinds of ``quartics``, drawn from rng."""
    def small(r=3):
        if ring is ZZ:
            return rng.randint(-r, r)
        return ring.element(rng.randint(-r, r), rng.randint(-r, r))

    def tiny(r=2):
        x = small(r)
        return x if x != ring.zero else ring.one

    kinds = (
        lambda: composed(ring, small(), small(), tiny(), small(), small(),
                         tiny()),
        lambda: field_quartic(ring, small(), tiny(), tiny(), small(),
                              small()),
        lambda: witness_quartic(ring, small(), *(tiny(1) for _ in range(4))),
        lambda: Polynomial(ring, [small(9) for _ in range(4)]
                           + [tiny() * tiny()], "x"),
    )
    return [kinds[i % len(kinds)]() for i in range(count)]


class TestProvedOnce:
    def test_decides_without_composing(self, monkeypatch):
        # the field version recomposes each pair it finds; the decision
        # itself composes nothing, and still returns the same pairs
        rng = random.Random(3)
        cases = [(f, field_quartic_ring_decide(f)) for ring in RINGS.values()
                 for f in _fixed_quartics(ring, rng, 60)]
        assert sum(want.status is RingDecideStatus.DECOMPOSABLE_OVER_RING
                   for _, want in cases) >= len(cases) // 2

        def refuse(*args):
            raise AssertionError("quartic_ring_decide composed a pair")

        monkeypatch.setattr(decomp, "compose", refuse)
        for f, want in cases:
            assert quartic_ring_decide(f) == want


def rich_lead(ring):
    """A lead with many divisor classes: 720, or 6*(1 + w)."""
    return 720 if ring is ZZ else ring.element(6, 6)


class TestHullDivisions:
    """The decision divides nothing in the field.  Its evidence, the one
    hull division of the closed form, is made on the first read of
    ``field_evidence`` and kept, never per candidate."""

    @staticmethod
    def assert_divides_on_first_read_only(out, hull_divisions):
        assert hull_divisions == []
        evidence = out.field_evidence
        assert evidence is not None
        assert len(hull_divisions) == 1
        assert out.field_evidence is evidence
        assert len(hull_divisions) == 1

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_once_per_field_decomposable_decision(self, name,
                                                  hull_divisions):
        ring = RINGS[name]
        f = compose(Polynomial(ring, [0, 1, rich_lead(ring)], "x"),
                    Polynomial(ring, [0, 1, 1], "x"))
        out = quartic_ring_decide(f)
        assert out.status is RingDecideStatus.DECOMPOSABLE_OVER_RING
        assert len(out.candidates) >= 8
        self.assert_divides_on_first_read_only(out, hull_divisions)

    def test_once_per_witness_decision(self, hull_divisions):
        for pair in builtin_examples():
            _, data, _ = run_pipeline(pair)
            del hull_divisions[:]
            out = quartic_ring_decide(data.f)
            assert out.status is RingDecideStatus.INDECOMPOSABLE_OVER_RING
            self.assert_divides_on_first_read_only(out, hull_divisions)

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_never_for_a_field_indecomposable_quartic(self, name,
                                                      hull_divisions):
        ring = RINGS[name]
        f = Polynomial(ring, [0, 1, 0, 0, rich_lead(ring)], "x")
        out = quartic_ring_decide(f)
        assert out.status is RingDecideStatus.INDECOMPOSABLE_OVER_FIELD
        assert out.field_evidence is None
        assert hull_divisions == []


def eager_outcome(f):
    """quartic_ring_decide(f) with its field evidence built at once, by the
    closed form over the hull."""
    out = quartic_ring_decide(f)
    evidence = None
    if out.status is not RingDecideStatus.INDECOMPOSABLE_OVER_FIELD:
        evidence = quartic_field_decompose(embed_poly(f, hull_of(f.domain)))
    return RingDecideOutcome(out.status, out.decomposition, evidence,
                             out.candidates)


class TestEvidenceOnFirstRead:
    """An outcome whose evidence waits for its first read is, to every
    reader, the outcome built with its evidence."""

    @pytest.mark.parametrize("name", sorted(RINGS))
    @pytest.mark.parametrize("read_first", [False, True])
    def test_equal_pickled_copied_and_printed_like_an_eager_one(
            self, name, read_first):
        ring = RINGS[name]
        fs = _fixed_quartics(ring, random.Random(5), 16) \
            + rich_lead_quartics(ring)
        statuses = set()
        for f in fs:
            want = eager_outcome(f)
            statuses.add(want.status)

            def fresh():
                out = quartic_ring_decide(f)
                if read_first:
                    out.field_evidence
                return out

            assert fresh() == want and want == fresh()
            assert hash(fresh()) == hash(want)
            assert repr(fresh()) == repr(want)
            assert copy.copy(fresh()) == want
            assert copy.deepcopy(fresh()) == want
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(fresh(), protocol))
                assert back == want and repr(back) == repr(want)
        assert RingDecideStatus.INDECOMPOSABLE_OVER_FIELD in statuses
        assert RingDecideStatus.DECOMPOSABLE_OVER_RING in statuses

    def test_equal_to_the_eager_witness_outcome(self):
        for pair in builtin_examples():
            _, data, report = run_pipeline(pair)
            assert report.ring_outcome == eager_outcome(data.f)

    def test_differs_where_the_evidence_differs(self):
        f = compose(Polynomial(ZZ, [0, 1, 6], "x"),
                    Polynomial(ZZ, [0, 1, 1], "x"))
        out = quartic_ring_decide(f)
        assert out != RingDecideOutcome(out.status, out.decomposition,
                                        None, out.candidates)

    def test_takes_no_assignment(self):
        out = quartic_ring_decide(Polynomial(ZZ, [0, 1, 0, 0, 2], "x"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.field_evidence = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            out.status = RingDecideStatus.DECOMPOSABLE_OVER_RING
        with pytest.raises(dataclasses.FrozenInstanceError):
            del out.candidates

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_unit_lead_evidence_is_the_decomposition(self, name,
                                                     hull_divisions):
        ring = RINGS[name]
        f = compose(Polynomial(ring, [3, 1, -1], "x"),
                    Polynomial(ring, [0, 2, 1], "x"))
        out = decompose_over_ring(f, [2])
        assert out.status is RingDecideStatus.DECOMPOSABLE_OVER_RING
        assert out.candidates is None
        assert out.field_evidence is out.decomposition
        assert out == RingDecideOutcome(out.status, out.decomposition,
                                        out.decomposition, None)
        assert hull_divisions == []


def norm_tests(f):
    """Per candidate u, whether N(u)^2 | N(D), N(4D) N(u) | N(Delta) and
    N(2D) | N(u) N(a3), with N the norm of f's ring."""
    ring = f.domain
    N = ring.norm
    D, a3, a2 = f.coefficient(4), f.coefficient(3), f.coefficient(2)
    delta = D * a2 * 4 - a3 * a3
    return [(N(D) % N(u) ** 2 == 0, N(delta) % (N(D * 4) * N(u)) == 0,
             N(u) * N(a3) % N(D * 2) == 0)
            for u in ring.divisors_up_to_associates(D)]


def rich_lead_quartics(ring):
    """Field-decomposable quartics: with lead rich_lead(ring), composed over
    the ring and over the field only; the ring's witness quartic; and over
    an order, (q^3 y^2 + 2q y + 1) o (x^2 + (conj(q)/q) x) with q = 2 + w,
    where the unit candidate passes all three norm tests and fails (iii)."""
    lead = rich_lead(ring)
    one, two, three = ring.one, ring.one * 2, ring.one * 3
    out = [compose(Polynomial(ring, [0, 1, lead], "x"),
                   Polynomial(ring, [0, 1, 1], "x")),
           compose(Polynomial(ring, [5, three, lead], "x"),
                   Polynomial(ring, [0, two, 1], "x")),
           field_quartic(ring, one, lead, one, three, one),
           field_quartic(ring, two, two, lead, one, three),
           witness_quartic(ring, one, one, one, one, one)]
    if ring is not ZZ:
        q = ring.element(2, 1)
        out.append(field_quartic(ring, one, q, q, two, q.conjugate()))
    return out


class TestNormsBeforeDivisions:
    """Each candidate division runs only where its norm test passes."""

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_one_division_per_passing_norm_test(self, name, monkeypatch):
        ring = RINGS[name]
        calls = []
        original = type(ring).divides_exact

        def counted(self, x, y):
            if sys._getframe(1).f_code is decomp.quartic_ring_decide.__code__:
                calls.append((x, y))
            return original(self, x, y)

        monkeypatch.setattr(type(ring), "divides_exact", counted)
        skipped = 0
        for f in rich_lead_quartics(ring):
            tests = norm_tests(f)
            del calls[:]
            out = quartic_ring_decide(f)
            assert out.status is not RingDecideStatus.INDECOMPOSABLE_OVER_FIELD
            assert len(out.candidates) == len(tests)
            assert len(calls) == sum(map(sum, tests))
            skipped += 3 * len(tests) - len(calls)
            for check, passed in zip(out.candidates, tests):
                # a failed norm test is a failed division
                flags = (check.square_divides_lead, check.divides_linear,
                         check.inner_stays_in_ring)
                assert all(p or not flag for p, flag in zip(passed, flags))
                if ring is ZZ:      # N = |x|: the tests are the divisions
                    assert flags == passed
        assert skipped > 0

    def test_norm_tests_are_only_necessary_over_the_orders(self):
        # some candidate over each order passes a norm test and fails the
        # division it guards
        for name, ring in RINGS.items():
            if ring is ZZ:
                continue
            loose = 0
            for f in rich_lead_quartics(ring):
                out = quartic_ring_decide(f)
                for check, passed in zip(out.candidates, norm_tests(f)):
                    loose += sum(p and not flag for p, flag in zip(
                        passed, (check.square_divides_lead,
                                 check.divides_linear,
                                 check.inner_stays_in_ring)))
            assert loose > 0, name


class TestNoResidentMemory:
    def test_passes_leave_no_traced_memory_behind(self):
        rng = random.Random(11)
        fs = [f for ring in RINGS.values()
              for f in _fixed_quartics(ring, rng, 12)]

        def one_pass():
            for f in fs:
                quartic_ring_decide(f)
            for pair in builtin_examples():
                run_pipeline(pair)

        one_pass()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                one_pass()
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 16 * 1024

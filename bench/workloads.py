"""Seeded inputs and independent oracles for the polydecomp benchmark.

Nothing here imports polydecomp.  Inputs are plain data (integers,
coordinate pairs, argv lists), and the oracles recheck every answer with
the small polynomial arithmetic below, so a defect in the package cannot
hide by agreeing with its own checks.

Each workload keeps the same shape for every seed (the same classes,
degrees and counts); the seed draws only the coefficients, the primes and
the order.  That keeps the cost of one pass comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

WORKLOADS = ("field-highdeg", "ring-quartic", "cli-mixed")

# ---------------------------------------------------------------------------
# coefficient arithmetic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ops:
    """Ring operations on one coefficient representation."""

    zero: Any
    add: Callable[[Any, Any], Any]
    mul: Callable[[Any, Any], Any]


RAT = Ops(0, operator.add, operator.mul)


def quad_ops(d: int) -> Ops:
    """Coordinates (a, b) of a + b*w in the order of discriminant field d.

    w = sqrt(d), or w = (1 + sqrt(d))/2 when d = 1 (mod 4); d = 0 stands
    for the rational integers, whose elements keep b = 0.
    """
    def mul(x, y):
        a, b = x
        c, e = y
        if d % 4 == 1:
            return (a * c + b * e * (d - 1) // 4, a * e + b * c + b * e)
        return (a * c + d * b * e, a * e + b * c)

    return Ops((0, 0), lambda x, y: (x[0] + y[0], x[1] + y[1]), mul)


def quad_norm(d: int, x: tuple) -> int:
    a, b = x
    if d % 4 == 1:
        return a * a + a * b + b * b * (1 - d) // 4
    return a * a - d * b * b


def quad_conj(d: int, x: tuple) -> tuple:
    a, b = x
    return (a + b, -b) if d % 4 == 1 else (a, -b)


def _trim_t(c: list) -> tuple:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _tadd(x: tuple, y: tuple) -> tuple:
    n = max(len(x), len(y))
    return _trim_t([(x[i] if i < len(x) else 0) + (y[i] if i < len(y) else 0)
                    for i in range(n)])


def _tmul(x: tuple, y: tuple) -> tuple:
    if not x or not y:
        return ()
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return _trim_t(out)


#: Z[t] elements as coefficient tuples in t, low to high.
TPOLY = Ops((), _tadd, _tmul)


def padd(f: list, g: list, ops: Ops) -> list:
    n = max(len(f), len(g))
    out = [ops.add(f[i] if i < len(f) else ops.zero,
                   g[i] if i < len(g) else ops.zero) for i in range(n)]
    while out and out[-1] == ops.zero:
        out.pop()
    return out


def pmul(f: list, g: list, ops: Ops) -> list:
    if not f or not g:
        return []
    out = [ops.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = ops.add(out[i + j], ops.mul(a, b))
    while out and out[-1] == ops.zero:
        out.pop()
    return out


def pcompose(g: list, h: list, ops: Ops) -> list:
    """g(h(x)) by Horner's rule, coefficient lists low to high."""
    acc: list = []
    for c in reversed(g):
        acc = padd(pmul(acc, h, ops), [c], ops)
    return acc


def compose_chain(chain: list, ops: Ops) -> list:
    """c1 o c2 o ... o ck for a chain listed outermost first."""
    f = chain[-1]
    for c in reversed(chain[:-1]):
        f = pcompose(c, f, ops)
    return f


# ---------------------------------------------------------------------------
# rendering in the CLI expression grammar
# ---------------------------------------------------------------------------


def _join_terms(terms: list) -> str:
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += t if t.startswith("-") else "+" + t
    return out


def _monomial(c: str, var: str, k: int) -> str:
    if k == 0:
        return c
    power = var if k == 1 else f"{var}^{k}"
    return f"{c}*{power}"


def render_rat(c) -> str:
    return f"({Fraction(c)})"


def render_quad(c: tuple) -> str:
    return "(" + _join_terms([_monomial(str(v), "w", k)
                              for k, v in enumerate(c) if v]) + ")"


def render_tpoly(c: tuple) -> str:
    return "(" + _join_terms([_monomial(str(v), "t", k)
                              for k, v in enumerate(c) if v]) + ")"


def render_poly(f: list, render_coeff: Callable[[Any], str], zero: Any) -> str:
    """Every coefficient is parenthesized, so the text starts with '('."""
    terms = [_monomial(render_coeff(c), "x", k)
             for k, c in reversed(list(enumerate(f))) if c != zero]
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# shared generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One decision: what to call, on which input, and what must come back."""

    kind: str
    data: tuple
    expect: tuple


def inputs_digest(cases: list) -> str:
    """Hash of an input list, so two seeds can be told apart at a glance."""
    return hashlib.sha256(repr(cases).encode()).hexdigest()[:16]


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


def _stratified_exponents(rng: random.Random, n: int, lo: float,
                          hi: float) -> list:
    """n values spread evenly over [lo, hi], one at random in each stratum."""
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def eisenstein_derivative(rng: random.Random, N: int, p: int,
                          leads=(1,)) -> list:
    """Integer coefficients of f with f' Eisenstein at p (p prime, p not | N).

    f' = sum k*a_k x^(k-1): p divides every lower coefficient k*a_k with
    k < N, p^2 does not divide a_1, and p does not divide N*a_N.  So f' is
    irreducible over Q, and f cannot be g(h) with deg g, deg h >= 2,
    because then h' would be a proper factor of f'.  The lower
    coefficients are +-p, so inputs of one degree differ only in signs.
    """
    a = [rng.randint(-3, 3)]
    a.append(p * rng.choice([r for r in (-3, -2, -1, 1, 2, 3) if r % p]))
    a.extend(p * rng.choice((-1, 1)) for _ in range(2, N))
    a.append(rng.choice([v for v in leads if v % p]))
    check_eisenstein_derivative(a, p)
    return a


def check_eisenstein_derivative(a: list, p: int) -> None:
    """Raise unless the derivative of sum a_k x^k is Eisenstein at p."""
    N = len(a) - 1
    deriv = [k * a[k] for k in range(1, N + 1)]
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if deriv[-1] % p == 0:
        raise ValueError("p divides the leading coefficient of f'")
    if any(c % p for c in deriv[:-1]):
        raise ValueError("p does not divide every lower coefficient of f'")
    if deriv[0] % (p * p) == 0:
        raise ValueError("p^2 divides the constant term of f'")


# ---------------------------------------------------------------------------
# field-highdeg
# ---------------------------------------------------------------------------

#: Prime degrees of the factors of each composition (N = 24..60), listed
#: outermost first.  The order is fixed because it decides how many inner
#: degrees an ascending search rejects before it finds one.
FIELD_COMPOSITIONS = ((2, 2, 2, 3), (2, 3, 5), (2, 2, 3, 3), (2, 2, 2, 5),
                      (2, 3, 7), (3, 3, 5), (2, 2, 2, 2, 3), (2, 5, 5),
                      (2, 3, 3, 3), (2, 2, 2, 7), (2, 2, 3, 5), (3, 5, 2, 2))
#: Highly composite degrees, so every proper inner degree gets tried.
FIELD_EISENSTEIN = (24, 30, 36, 48)
FIELD_EISENSTEIN_PRIME = 11            # divides none of the degrees
FIELD_DECIDERS = ("field", "full")


def _random_factor(rng: random.Random, deg: int, lead: int = 1) -> list:
    return [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(deg)] + [lead]


def field_cases(seed: int) -> list:
    """Compositions of prime-degree factors and Eisenstein indecomposables,
    each in a monic and a non-monic draw.

    Deciders alternate between ascending-degree decompose_over_field
    ("field") and decompose_fully ("full").
    """
    rng = random.Random(f"field-highdeg:{seed}")
    cases = []
    for i, degs in enumerate(FIELD_COMPOSITIONS):
        for k, outer_lead in enumerate((1, 2)):
            chain = [_random_factor(rng, d) for d in degs]
            chain[0][-1] = outer_lead
            f = compose_chain(chain, RAT)
            cases.append(Case("composition",
                              (FIELD_DECIDERS[(i + k) % 2], tuple(f)),
                              tuple(sorted(degs))))
    p = FIELD_EISENSTEIN_PRIME
    for i, N in enumerate(FIELD_EISENSTEIN):
        for k, lead in enumerate((1, 2)):
            f = eisenstein_derivative(rng, N, p, (lead,))
            cases.append(Case("eisenstein",
                              (FIELD_DECIDERS[(i + k) % 2], tuple(f)), (p,)))
    rng.shuffle(cases)
    return cases


def check_field(case: Case, answer) -> str:
    """Empty string when the answer is right, else what is wrong.

    answer: for "field" the (g, h) coefficient lists found, or None; for
    "full" the chain of coefficient lists, outermost first.
    """
    decider, f = case.data
    f = list(f)
    if case.kind == "eisenstein":
        if decider == "field":
            return "" if answer is None else "decomposed an indecomposable"
        return "" if answer == [f] else "split an indecomposable"
    if decider == "field":
        if answer is None:
            return "missed a decomposition"
        return "" if pcompose(answer[0], answer[1], RAT) == f \
            else "pair does not recompose"
    if sorted(len(c) - 1 for c in answer) != list(case.expect):
        return "chain degrees differ from the construction (Ritt)"
    return "" if compose_chain(answer, RAT) == f \
        else "chain does not recompose"


# ---------------------------------------------------------------------------
# ring-quartic
# ---------------------------------------------------------------------------

RING_DS = (0, -5, -6, -15)          # 0 stands for Z
WITNESS_DS = (-5, -6, -15)
RING_COMPOSITIONS_PER_RING = 25
RING_WITNESSES_PER_RING = 40
RING_INDECOMPOSABLES_PER_RING = 5
LEAD_NORM_LO, LEAD_NORM_HI = 2, 6      # log10 of the lead norms


def _elements_below(d: int, bound: int) -> list:
    """Elements (a, b) of norm 1..bound, by a box search."""
    out = []
    r = math.isqrt(4 * bound) + 2
    for b in range(-r, r + 1):
        for a in range(-r - abs(b), r + abs(b) + 1):
            n = quad_norm(d, (a, b))
            if 0 < n <= bound:
                out.append((a, b))
    return out


def witness_triples(d: int, max_norm: int) -> list:
    """(p, q, alpha): p*q = alpha*conj(alpha), p <= q primes that are not
    norms, alpha not a rational integer (so not an associate of p).

    p and q are then irreducible (a proper factor would have norm p or q)
    and so are alpha and its conjugate, and {p, q} and {alpha, conj} are
    two inequivalent factorizations of p*q.
    """
    elems = _elements_below(d, max_norm)
    norms = {quad_norm(d, x) for x in elems}
    out = []
    for x in elems:
        if x[1] == 0:
            continue
        n = quad_norm(d, x)
        for p in range(2, math.isqrt(n) + 1):
            if n % p == 0:
                q = n // p
                if _is_prime(p) and _is_prime(q) and p not in norms \
                        and q not in norms:
                    out.append((p, q, x))
                break
    return sorted(out, key=lambda t: (t[0] * t[1], t[2]))


def witness_quartic(d: int, p: int, q: int, alpha: tuple) -> list:
    """The quartic the witness pipeline must build from {p, q} = {a, conj a}.

    With ell = p, a = alpha and p_s = conj(alpha), c = alpha/p and
    d = conj(alpha)^2, (d x^2 + ell x) o (x^2 + c x) expands to
    conj^2 x^4 + 2q conj x^3 + (q^2 + p) x^2 + alpha x.
    """
    ops = quad_ops(d)
    ab = quad_conj(d, alpha)
    return [(0, 0), alpha, (q * q + p, 0), (2 * q * ab[0], 2 * q * ab[1]),
            ops.mul(ab, ab)]


def lead_norm(d: int, x: tuple) -> int:
    """The norm the divisor search is bounded by: |x| over Z."""
    return abs(x[0]) if d == 0 else quad_norm(d, x)


def _near_norm(rng: random.Random, d: int, target: float) -> tuple:
    """A random nonzero element whose lead_norm is close to target."""
    sign = rng.choice((1, -1))
    if d == 0:
        return (sign * max(1, round(target)), 0)
    absd = -d
    if d % 4 == 1:
        # norm(a + b*w) = (a + b/2)^2 + |d| b^2 / 4
        b = rng.randint(-math.isqrt(int(4 * target / absd)),
                        math.isqrt(int(4 * target / absd)))
        rest = max(target - absd * b * b / 4, 0.0)
        x = (round(sign * math.sqrt(rest) - b / 2), b)
    else:
        b = rng.randint(-math.isqrt(int(target / absd)),
                        math.isqrt(int(target / absd)))
        x = (sign * round(math.sqrt(max(target - absd * b * b, 0.0))), b)
    return x if x != (0, 0) else (1, 0)


def _small(rng: random.Random, d: int, r: int = 9) -> tuple:
    return (rng.randint(-r, r), 0 if d == 0 else rng.randint(-r, r))


def ring_composition(rng: random.Random, d: int, log_norm: float,
                     max_norm: int = 10 ** LEAD_NORM_HI) -> tuple:
    """(g, h, f) with g = g2 x^2 + g1 x + g0, h = u x^2 + c x, f = g(h),
    and lead_norm(g2 * u^2) close to 10^log_norm."""
    ops = quad_ops(d)
    while True:
        u = _near_norm(rng, d, 10 ** rng.uniform(0, log_norm / 3))
        g2 = _near_norm(rng, d, 10 ** log_norm / lead_norm(d, u) ** 2)
        lead = lead_norm(d, ops.mul(g2, ops.mul(u, u)))
        if 10 ** LEAD_NORM_LO <= lead <= max_norm:
            break
    g = [_small(rng, d), _small(rng, d), g2]
    h = [(0, 0), _small(rng, d), u]
    return g, h, pcompose(g, h, ops)


def ring_cases(seed: int) -> list:
    """Ring compositions, witness pipelines and field-indecomposables over
    Z, Z[sqrt(-5)], Z[sqrt(-6)] and O(-15), leads log-uniform in 1e2..1e6."""
    rng = random.Random(f"ring-quartic:{seed}")
    cases = []
    for d in RING_DS:
        for e in _stratified_exponents(rng, RING_COMPOSITIONS_PER_RING,
                                       LEAD_NORM_LO, LEAD_NORM_HI):
            _, _, f = ring_composition(rng, d, e)
            cases.append(Case("composition", (d, tuple(f)), ()))
        for _ in range(RING_INDECOMPOSABLES_PER_RING):
            p = rng.choice((5, 7, 11))
            # lead norm 1e2..1e6 for a rational integer lead a: |a| over Z,
            # a^2 over the quadratic orders
            a = eisenstein_derivative(
                rng, 4, p, range(100, 10 ** 4) if d == 0 else range(10, 1000))
            cases.append(Case("indecomposable", (d, tuple((c, 0) for c in a)),
                              (p,)))
    for d in WITNESS_DS:
        triples = witness_triples(d, math.isqrt(10 ** LEAD_NORM_HI))
        for e in _stratified_exponents(rng, RING_WITNESSES_PER_RING,
                                       max(1.0, LEAD_NORM_LO / 2),
                                       LEAD_NORM_HI / 2):
            best = min(abs(math.log10(t[0] * t[1]) - e) for t in triples)
            near = [t for t in triples
                    if abs(math.log10(t[0] * t[1]) - e) <= best + 0.02]
            p, q, alpha = rng.choice(near)
            cases.append(Case("witness", (d, p, q, alpha),
                              tuple(witness_quartic(d, p, q, alpha))))
    rng.shuffle(cases)
    return cases


def check_ring(case: Case, answer) -> str:
    """answer: ("decomposable_over_ring", g, h) with coordinate lists,
    ("indecomposable_over_field",), or for witnesses
    ("witness", passed, ring_status, f)."""
    if case.kind == "witness":
        _, passed, status, f = answer
        if not passed:
            return "witness report failed"
        if status != "indecomposable_over_ring":
            return f"witness quartic decided {status}"
        return "" if list(f) == list(case.expect) \
            else "witness quartic differs from the construction"
    d, f = case.data
    if case.kind == "indecomposable":
        return "" if answer[0] == "indecomposable_over_field" \
            else f"decided {answer[0]}"
    if answer[0] != "decomposable_over_ring":
        return f"ring composition decided {answer[0]}"
    _, g, h = answer
    if len(g) != 3 or len(h) != 3:
        return "factors are not both quadratic"
    return "" if pcompose(g, h, quad_ops(d)) == list(f) \
        else "ring pair does not recompose"


# ---------------------------------------------------------------------------
# cli-mixed
# ---------------------------------------------------------------------------

QUAD_DESCRIPTORS = {-5: "Z[sqrt(-5)]", -6: "Z[sqrt(-6)]", -15: "O(-15)"}
RING_DESCRIPTORS = {0: "Z", **QUAD_DESCRIPTORS}
CLI_MAX_LEAD_NORM = 10 ** 4
DEMO_Q1_OK = "every recovered decomposition stayed inside Z[t2,t3]"
DEMO_Q2_OK = ("indecomposable over Z[sqrt(-5)], "
              "decomposable over Q(sqrt(-5))")


def _rat_poly(rng: random.Random, deg: int) -> list:
    cs = [Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
          for _ in range(deg)]
    return cs + [Fraction(rng.choice((1, 2, -3)))]


def _t_member(rng: random.Random) -> tuple:
    """A random element of Z[t2,t3]: no t-linear term."""
    return _trim_t([rng.randint(-3, 3), 0, rng.randint(-3, 3),
                    rng.randint(-3, 3)])


def _t_any(rng: random.Random) -> tuple:
    return _trim_t([rng.randint(-3, 3) for _ in range(3)])


def cli_cases(seed: int) -> list:
    """Argument vectors for all seven subcommands, each in text and --json.

    expect = (JSON status, exit code, a prefix some line of the text form
    must start with).
    """
    rng = random.Random(f"cli-mixed:{seed}")
    out = []

    def add(argv, status, marker, code=0):
        for as_json in (False, True):
            out.append(Case(argv[0], argv + (("--json",) if as_json else ()),
                            (status, code, marker)))

    def rat(f):
        return render_poly(f, render_rat, 0)

    def quad(f):
        return render_poly(f, render_quad, (0, 0))

    for dg, dh in ((2, 3), (3, 2)):
        add(("compose", rat(_rat_poly(rng, dg)), rat(_rat_poly(rng, dh))),
            "ok", "")
    for dg, dh in ((2, 3), (3, 4), (2, 6)):
        f = pcompose(_rat_poly(rng, dg), _rat_poly(rng, dh), RAT)
        add(("decompose", rat(f)), "decomposable_over_field",
            "decomposable over Q:")
    chain = [_random_factor(rng, d, rng.choice((1, 2))) for d in (2, 2, 3)]
    add(("decompose", "--full", rat(compose_chain(chain, RAT))),
        "decomposable_over_field", "f = ")
    for N in (6, 12):
        f = eisenstein_derivative(rng, N, 5)
        add(("decompose", "--fail-on-indecomposable", rat(f)),
            "indecomposable_over_field", "indecomposable over Q", 2)
    for ring, coeff in (("Z[t]", _t_any), ("Z[t2,t3]", _t_member)):
        g = [coeff(rng), coeff(rng), (1,)]
        h = [(), coeff(rng), coeff(rng), (1,)]
        f = pcompose(g, h, TPOLY)
        add(("decompose", "--ring", ring, render_poly(f, render_tpoly, ())),
            "decomposable_over_ring", f"decomposable over {ring}:")
    for d, ring in RING_DESCRIPTORS.items():
        _, _, f = ring_composition(rng, d, rng.uniform(2, 4),
                                   CLI_MAX_LEAD_NORM)
        add(("quartic", "--ring", ring, quad(f)), "decomposable_over_ring",
            f"over {ring}: decomposable")
    for d, ring in QUAD_DESCRIPTORS.items():
        p, q, alpha = rng.choice(witness_triples(d, math.isqrt(
            CLI_MAX_LEAD_NORM)))
        add(("quartic", "--ring", ring, quad(witness_quartic(d, p, q, alpha))),
            "indecomposable_over_ring", f"over {ring}: indecomposable")
        add(("witness", "--ring", ring, f"--element={p * q}",
             f"--factorization={p},{q}",
             f"--factorization={render_quad(alpha)},"
             f"{render_quad(quad_conj(d, alpha))}"),
            "witness_verified", "PASS ring_indecomposability")
        add(("witness", f"--builtin={ring}"), "witness_verified",
            "PASS ring_indecomposability")
    add(("quartic", "--ring", "Q",
         rat(eisenstein_derivative(rng, 4, 5, range(10, 100)))),
        "indecomposable_over_field", "indecomposable over Q")
    for ring, elem, status in (
            ("Z[t2,t3]", render_tpoly(_t_member(rng) or (1,)), "member"),
            ("Z[t2,t3]", render_tpoly((rng.randint(-3, 3),
                                       rng.randint(1, 3))), "not_member"),
            ("O(-15)", render_quad((rng.randint(-4, 4), rng.randint(1, 4))),
             "member"),
            ("O(-15)", f"({Fraction(2 * rng.randint(-4, 4) + 1, 2)})",
             "not_member")):
        add(("check-subring", "--ring", ring, elem), status,
            f"{elem} is {'a' if status == 'member' else 'not a'} member")
    # demo-q1 draws its own pairs from --seed; one fixed seed keeps its cost
    # (the slowest argv here) the same for every workload seed
    add(("demo-q1", "--trials", "3", "--seed", "0"), "ok", DEMO_Q1_OK)
    add(("demo-q2",), "witness_verified", DEMO_Q2_OK)
    rng.shuffle(out)
    return out


def check_cli(case: Case, answer) -> str:
    """answer: (exit code, captured stdout)."""
    status, code, marker = case.expect
    got_code, text = answer
    if got_code != code:
        return f"exit code {got_code}, expected {code}"
    if "--json" in case.data:
        try:
            got = json.loads(text)["status"]
        except (ValueError, KeyError) as exc:
            return f"unreadable JSON: {exc}"
        return "" if got == status else f"status {got}, expected {status}"
    lines = text.splitlines()
    if not lines:
        return "empty output"
    if any(line.startswith("FAIL ") for line in lines):
        return "a clause failed"
    return "" if any(line.startswith(marker) for line in lines) \
        else f"no line starts with {marker!r}"


GENERATORS = {"field-highdeg": field_cases, "ring-quartic": ring_cases,
              "cli-mixed": cli_cases}
CHECKS = {"field-highdeg": check_field, "ring-quartic": check_ring,
          "cli-mixed": check_cli}

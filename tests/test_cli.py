"""Command-line behavior: grammar, ring descriptors, JSON, exit codes."""

import contextlib
import io
import json
import operator
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polydecomp import (Polynomial, QuadraticField, QuadraticIntRing, QQ, QT,
                        Tier, ZT, ZT23, ZZ, hull_of, main, parse_expression,
                        parse_poly, resolve_ring)
import polydecomp
from polydecomp import cli, poly
from polydecomp.cli import ParseError, format_result, run, build_parser

R5 = QuadraticIntRing(-5)
K5 = QuadraticField(-5)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGrammar:
    def test_basic_forms(self):
        p = parse_poly("x^2 + 2*x + 1", "Q")
        assert p == Polynomial(QQ, [1, 2, 1], "x")

    def test_whitespace_insensitive(self):
        assert parse_poly(" x ^ 2+ 2 * x ", "Q") == parse_poly("x^2+2*x", "Q")

    def test_fractions(self):
        p = parse_poly("1/2*x^2 - 3/4", "Q")
        assert p.coefficient(2) == Fraction(1, 2)
        assert p.coefficient(0) == Fraction(-3, 4)

    def test_leading_minus(self):
        p = parse_poly("-x^2 + 1", "Q")
        assert p.coefficient(2) == -1
        q = parse_poly("(-4-2*w)*x^4 + (1+w)*x", "Z[sqrt(-5)]")
        assert q.coefficient(4) == R5.element(-4, -2)
        assert q.coefficient(1) == R5.element(1, 1)

    def test_minus_binds_to_first_term_only(self):
        assert parse_poly("-2*x + 3", "Q") == Polynomial(QQ, [3, -2], "x")
        assert parse_poly("-(2*x + 3)", "Q") == Polynomial(QQ, [-3, -2], "x")

    def test_power_of_parenthesized(self):
        p = parse_poly("(x+1)^3", "Q")
        assert p == Polynomial(QQ, [1, 3, 3, 1], "x")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("2x")
        with pytest.raises(ParseError):
            parse_expression("2(x+1)")
        with pytest.raises(ParseError):
            parse_expression("x x")

    def test_bad_exponent_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_expression("x^t")
        assert "exponent" in str(info.value)
        with pytest.raises(ParseError):
            parse_expression("x^-2")
        with pytest.raises(ParseError):
            parse_expression("x^(2)")

    def test_error_position_is_reported(self):
        with pytest.raises(ParseError) as info:
            parse_expression("x + $")
        assert info.value.pos == 4
        assert "position 4" in str(info.value)

    def test_unknown_letters_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("y + 1")
        with pytest.raises(ParseError):
            parse_expression("xx")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_expression("(x + 1")
        with pytest.raises(ParseError):
            parse_expression("x + 1)")

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_expression("1/0")

    def test_nesting_depth_is_bounded(self):
        with pytest.raises(ParseError) as info:
            parse_expression("(" * 3000 + "x" + ")" * 3000)
        assert info.value.pos == 100
        assert parse_poly("(" * 100 + "x+1" + ")" * 100, "Q") == \
            Polynomial(QQ, [1, 1], "x")

    def test_long_sums_and_products_lower_without_recursion(self):
        assert parse_poly("+".join(["x"] * 3000), "Q") == \
            Polynomial(QQ, [0, 3000], "x")
        assert parse_poly("*".join(["2"] * 3000), "Z") == \
            Polynomial(ZZ, [2 ** 3000], "x")

    def test_degree_bound_is_checked_before_lowering(self):
        assert parse_poly("x^4096", "Q").degree == 4096
        assert parse_poly("2^5000", "Z") == Polynomial(ZZ, [2 ** 5000], "x")
        with pytest.raises(ParseError) as info:
            parse_expression("x + (x^2)^2049")
        assert info.value.pos == 9
        assert "degree in x may exceed 4096" in str(info.value)
        with pytest.raises(ParseError) as info:
            parse_expression("x^4096*t^4096*t")
        assert info.value.pos == 13
        assert "degree in t" in str(info.value)

    def test_constant_size_is_bounded_before_lowering(self):
        for base in ("1", "0", "(-1)", "-1"):
            parse_expression(f"{base}^10000000000")
        assert parse_poly("(-1)^10000000001", "Z") == Polynomial(ZZ, [-1], "x")
        assert parse_poly("0^10000000000+1", "Z") == Polynomial(ZZ, [1], "x")
        parse_expression("2^1048576")
        for text, pos in (("2^1048577", 1), ("x+2^1048576*2", 11),
                          ("(3/2)^1048576", 5), ("2^1048576+1", 9)):
            with pytest.raises(ParseError) as info:
                parse_expression(text)
            assert info.value.pos == pos, text
            assert "may exceed 1048576 bits" in str(info.value)
        # w counts one bit without a ring and about log2|d| + 1 with one
        parse_expression("w^262145")
        with pytest.raises(ParseError) as info:
            parse_poly("w^262145", "Z[sqrt(-5)]")
        assert info.value.pos == 1

    def test_only_ascii_digits_are_digits(self):
        for text, pos in (("x^\u00b2", 2), ("x^\u0664+x^\u0662", 2),
                          ("\uff13*x", 0)):
            with pytest.raises(ParseError) as info:
                parse_expression(text)
            assert info.value.pos == pos, text
            assert f"unexpected character {text[pos]!r}" in str(info.value)

    def test_literal_at_the_digit_limit_parses(self):
        # CPython converts at most 4300 digits with int() by default
        digits = "1" * 4300
        f = parse_poly(f"x^4+{digits}*x+1/{digits}", "Q")
        assert f.coefficient(1) == int(digits)
        assert f.coefficient(0) == Fraction(1, int(digits))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_expression("x ^ 2 ^ 3")

    @pytest.mark.parametrize("text, pos, message", [
        # a grammar error wins over a degree or size bound
        ("x^5000+", 7, "expected a number, a symbol, or '('"),
        ("2^1048577 x", 10,
         "implicit multiplication is not allowed; insert '*'"),
        # a bad character anywhere wins over both
        ("(x+$", 3, "unexpected character '$'"),
        ("x^5000*$", 7, "unexpected character '$'"),
        ("x x $", 4, "unexpected character '$'"),
        # and over the nesting limit
        ("(" * 101 + "xx", 101, "unknown symbol starting with 'x'"),
    ])
    def test_error_precedence(self, text, pos, message):
        with pytest.raises(ParseError) as info:
            parse_expression(text)
        assert (str(info.value), info.value.pos) == \
            (f"syntax error at position {pos}: {message}", pos)


class TestRingDescriptors:
    def test_known_descriptors(self):
        assert resolve_ring("Z") is ZZ
        assert resolve_ring("Q").tier == Tier.FIELD
        assert resolve_ring("Z[sqrt(-5)]") is R5
        assert resolve_ring("Q(sqrt(-5))") is K5
        assert resolve_ring("O(-15)") is QuadraticIntRing(-15)
        assert resolve_ring("Z[t2,t3]") is ZT23
        assert resolve_ring("Z[t]") is ZT
        assert hull_of(resolve_ring("Z[t2,t3]")) is QT

    def test_spaces_tolerated(self):
        assert resolve_ring(" Z[sqrt(-5)] ") is R5

    @pytest.mark.parametrize("descriptor, name", [
        ("Z", "Z"), ("Q", "Q"), ("Z[sqrt(-5)]", "Z[sqrt(-5)]"),
        ("Q(sqrt(-5))", "Q(sqrt(-5))"), ("O(-15)", "O(-15)"),
        ("Z[t]", "Z[t]"), ("Q[t]", "Q[t]"), ("Z[t2,t3]", "Z[t2,t3]"),
        (" Z[ sqrt(-05) ] ", "Z[sqrt(-5)]"),
        ("Q( sqrt( -005 ) )", "Q(sqrt(-5))"), (" O(-015)", "O(-15)"),
        (" Z [ t2 , t3 ] ", "Z[t2,t3]"), ("Q [t]", "Q[t]")])
    def test_the_descriptor_is_the_name_of_the_domain(self, descriptor, name):
        ring = resolve_ring(descriptor)
        assert ring.name == name
        assert resolve_ring(ring.name) is ring

    def test_half_basis_needs_order_descriptor(self):
        with pytest.raises(ValueError) as info:
            resolve_ring("Z[sqrt(-15)]")
        assert "O(-15)" in str(info.value)

    def test_unknown_descriptor(self):
        with pytest.raises(ValueError):
            resolve_ring("Z[sqrt(5)]")   # positive d unsupported
        with pytest.raises(ValueError):
            resolve_ring("GF(7)")

    @pytest.mark.parametrize("descriptor", [
        "Z[sqrt(-\u0665)]", "O(-\uff1015)", "Q(sqrt(-\u0665))",
        "Z[sqrt(-5\u00b2)]", "O(\u0662)"])
    def test_only_ascii_digits_are_digits(self, descriptor, capsys):
        code, out, err = run_cli(["decompose", "--ring", descriptor,
                                  "x^4+x^2"], capsys)
        assert code == 1 and out == ""
        assert err.startswith(
            f"error: unknown ring descriptor {descriptor!r}; supported: ")

    @pytest.mark.parametrize("descriptor, message", [
        ("Z[sqrt(-{})]", "d = -{}: |d| >= 3317044064679887385961981 is not "
         "supported (squarefreeness is decided by factoring, exact only "
         "below it)"),
        ("O(-{})", "d = -{}: |d| >= 3317044064679887385961981 is not "
         "supported (squarefreeness is decided by factoring, exact only "
         "below it)"),
        ("Q(sqrt({}))", "d = {}: only imaginary quadratic rings are "
         "supported (the norm must be positive definite for divisor "
         "searches)"),
        # 77...7 = 1 (mod 4)
        ("Z[sqrt({})]", "Z[sqrt({0})] is not supported for d = 1 (mod 4); "
         "use O({0}), whose integral basis includes (1+sqrt({0}))/2"),
    ])
    def test_d_past_the_digit_limit_is_read_whole(self, descriptor, message,
                                                  capsys):
        # int() converts at most 4300 digits by default
        digits = "7" * 5000
        code, out, err = run_cli(["decompose", "--ring",
                                  descriptor.format(digits), "x^4+x^2"],
                                 capsys)
        assert code == 1 and out == ""
        assert err == f"error: {message.format(digits)}\n"

    def test_leading_zeros_past_the_digit_limit(self):
        zeros = "0" * 5000
        assert resolve_ring(f"Z[sqrt(-{zeros}5)]") is R5
        assert resolve_ring(f"Q(sqrt(-{zeros}5))") is K5
        assert resolve_ring(f" O( -{zeros}15 )") is QuadraticIntRing(-15)

    @pytest.mark.parametrize("ring, message", [
        # the first d = 1 (mod 4) at or above the Miller-Rabin bound
        ("O(-3317044064679887385961983)",
         "d = -3317044064679887385961983: |d| >= 3317044064679887385961981 "
         "is not supported (squarefreeness is decided by factoring, exact "
         "only below it)"),
        # -(10^9 + 7)^2: trial division to its square root would run to 10^9
        ("Z[sqrt(-1000000014000000049)]",
         "d = -1000000014000000049 is not squarefree"),
        ("Q(sqrt(-999999999999999999))",
         "d = -999999999999999999 is not squarefree"),
    ])
    def test_long_d_is_rejected_quickly(self, ring, message, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["decompose", "--ring", ring, "x^4+x"],
                                 capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("ring", [
        "O(-1000000000000000003)",          # a prime past the old 10^18 bound
        # (10^12 + 39)(10^12 + 61): rho splits it
        "O(-1000000000100000000002379)",
    ])
    def test_long_squarefree_d_is_accepted(self, ring, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(["decompose", "--ring", ring, "x^4+x"],
                                 capsys)
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (0, "")
        assert out.startswith("indecomposable over ")

    def test_w_meaning_depends_on_ring(self):
        half = parse_poly("w", "O(-15)")
        ring = resolve_ring("O(-15)")
        assert half.constant_term == ring.element(0, 1)
        sqrt5 = parse_poly("w", "Z[sqrt(-5)]")
        assert sqrt5.constant_term == R5.element(0, 1)

    def test_w_unavailable_over_plain_rings(self):
        with pytest.raises(ParseError):
            parse_poly("w*x", "Z")

    def test_t_unavailable_outside_t_rings(self):
        with pytest.raises(ParseError):
            parse_poly("t*x", "Z[sqrt(-5)]")

    def test_membership_enforced_at_parse(self):
        with pytest.raises(ValueError):
            parse_poly("1/2*x^2", "Z")
        with pytest.raises(ValueError):
            parse_poly("(1/2+1/2*w)*x", "Z[sqrt(-5)]")
        with pytest.raises(ValueError):
            parse_poly("t*x", "Z[t2,t3]")
        # but the same elements are fine where they belong
        parse_poly("1/2*x^2", "Q")
        parse_poly("(1+w)*x", "O(-15)")   # w itself is integral here
        parse_poly("t*x", "Z[t]")


class TestTextFormatRoundTrip:
    def test_random_polynomials_reparse(self):
        rng = random.Random(71)
        for ring_name in ("Z", "Q", "Z[sqrt(-5)]", "Q(sqrt(-5))", "O(-15)"):
            ring = resolve_ring(ring_name)
            for _ in range(100):
                coeffs = []
                for _ in range(rng.randint(1, 6)):
                    if ring_name == "Z":
                        coeffs.append(rng.randint(-9, 9))
                    elif ring_name == "Q":
                        coeffs.append(Fraction(rng.randint(-9, 9),
                                               rng.randint(1, 9)))
                    else:
                        coeffs.append(ring.element(rng.randint(-9, 9),
                                                   rng.randint(-9, 9)))
                p = Polynomial(ring, coeffs, "x")
                assert parse_poly(str(p), ring) == p

    def test_t_polynomials_reparse(self):
        rng = random.Random(73)
        ring = resolve_ring("Z[t]")
        for _ in range(100):
            coeffs = [Polynomial(ZZ, [rng.randint(-5, 5)
                                      for _ in range(rng.randint(0, 4))], "t")
                      for _ in range(rng.randint(1, 5))]
            p = Polynomial(ring, coeffs, "x")
            assert parse_poly(str(p), ring) == p

    @given(st.lists(st.lists(st.fractions(min_value=-9, max_value=9,
                                          max_denominator=7), max_size=4),
                    min_size=1, max_size=5))
    def test_q_t_polynomials_reparse(self, coeffs):
        p = Polynomial(QT, [Polynomial(QQ, c, "t") for c in coeffs], "x")
        assert parse_poly(str(p), "Q[t]") == p

    @given(st.lists(st.lists(st.integers(-9, 9), max_size=5),
                    min_size=1, max_size=5))
    def test_no_linear_term_polynomials_reparse(self, coeffs):
        p = Polynomial(ZT23, [Polynomial(ZZ, c[:1] + [0] + c[2:], "t")
                              for c in coeffs], "x")
        assert parse_poly(str(p), "Z[t2,t3]") == p


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


_DIGITS = "0123456789"


def reference_tokenize(text: str) -> list:
    """The per-character tokenizer the regex scan replaced."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            tokens.append(Token("num", text[i:j], i))
            i = j
            continue
        if ch in "xtw":
            nxt = text[i + 1] if i + 1 < len(text) else ""
            if nxt.isalnum() or nxt == "_":
                raise ParseError(f"unknown symbol starting with {ch!r}", i)
            tokens.append(Token("name", ch, i))
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(Token(ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", "", len(text)))
    return tokens


class _ReferenceParser:
    """The parser object _compile replaced: recursive descent over Tokens
    with peek and take."""

    def __init__(self, tokens: list):
        self.tokens = tokens
        self.i = 0
        self.depth = 0
        self.program = []

    def peek(self) -> Token:
        return self.tokens[self.i]

    def take(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def number(self) -> int:
        tok = self.take()
        try:
            return int(tok.text)
        except ValueError:
            raise ParseError(f"number literal of {len(tok.text)} digits is "
                             f"too long", tok.pos) from None

    def parse(self) -> list:
        self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError("unexpected trailing input", tok.pos)
        return self.program

    def expr(self) -> None:
        tok = self.peek()
        if tok.kind == "-":
            self.take()
            self.term()
            self.program.append(("neg", None, tok.pos))
        else:
            self.term()
        while self.peek().kind in ("+", "-"):
            op = self.take()
            self.term()
            self.program.append((op.kind, None, op.pos))

    def term(self) -> None:
        self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "*":
                self.take()
                self.factor()
                self.program.append(("*", None, tok.pos))
            elif tok.kind in ("num", "name", "("):
                raise ParseError(
                    "implicit multiplication is not allowed; insert '*'",
                    tok.pos)
            else:
                return

    def factor(self) -> None:
        self.base()
        tok = self.peek()
        if tok.kind == "^":
            self.take()
            etok = self.peek()
            if etok.kind != "num":
                raise ParseError(
                    "exponent must be a nonnegative integer literal", etok.pos)
            self.program.append(("^", self.number(), tok.pos))

    def base(self) -> None:
        tok = self.peek()
        if tok.kind == "num":
            value = self.number()
            if self.peek().kind == "/":
                self.take()
                dtok = self.peek()
                if dtok.kind != "num":
                    raise ParseError(
                        "denominator must be an unsigned integer", dtok.pos)
                denominator = self.number()
                if denominator == 0:
                    raise ParseError("denominator is zero", dtok.pos)
                value = Fraction(value, denominator)
            self.program.append(("num", value, tok.pos))
        elif tok.kind == "name":
            self.take()
            self.program.append(("sym", tok.text, tok.pos))
        elif tok.kind == "(":
            self.take()
            self.depth += 1
            if self.depth > cli._MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {cli._MAX_NESTING}",
                    tok.pos)
            self.expr()
            closing = self.peek()
            if closing.kind != ")":
                raise ParseError("expected ')'", closing.pos)
            self.take()
            self.depth -= 1
        else:
            raise ParseError("expected a number, a symbol, or '('", tok.pos)


def reference_compile(text: str) -> list:
    """The Program the per-character tokenizer and the parser object
    compiled text to, before any degree or size bound."""
    return _ReferenceParser(reference_tokenize(text)).parse()


_DENSE_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def reference_lower(program, ring):
    """The dense lowering the sparse one replaced: every step builds a
    Polynomial over the hull, and x^k is a power of the polynomial x."""
    dom = hull_of(ring)
    stack = []
    for op, arg, pos in program:
        if op == "num":
            stack.append(Polynomial.constant(dom, dom.coerce(arg), "x"))
        elif op == "sym":
            if arg == "x":
                stack.append(Polynomial.identity(dom, "x"))
                continue
            if arg not in ring.symbols:
                raise ParseError(f"symbol {arg} is not defined over "
                                 f"{ring.name}", pos)
            stack.append(Polynomial.constant(dom, ring.symbols[arg][0], "x"))
        elif op == "neg":
            stack.append(-stack.pop())
        elif op == "^":
            stack.append(stack.pop() ** arg)
        else:
            right, left = stack.pop(), stack.pop()
            stack.append(_DENSE_ARITHMETIC[op](left, right))
    return stack.pop()


def reference_parse_poly(text, ring):
    """parse_poly on the dense lowering, with its coefficient checks:
    every coefficient is first descended into Z[t] for Z[t2,t3] (and into
    the ring itself otherwise), and only then tested for a t^1 term."""
    p = reference_lower(cli._parse(text, cli._w_bits(ring)), ring)
    no_linear_term = ring.name == "Z[t2,t3]"
    integral = ZT if no_linear_term else ring
    coeffs = []
    for k, c in enumerate(p.coeffs):
        cc = integral.descend(c)
        if cc is None:
            raise ValueError(f"coefficient {hull_of(ring).format_element(c)} "
                             f"of x^{k} does not lie in {ring.name}")
        coeffs.append(cc)
    if no_linear_term:
        for k, c in enumerate(coeffs):
            if c.coefficient(1) != 0:
                raise ValueError(f"coefficient {c} of x^{k} "
                                 f"is not in {ring.name}")
    return Polynomial(ring, coeffs, p.var)


def _outcome(call, *args):
    """A call's value, or the type and message of the error it raised."""
    try:
        return call(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


#: Every ring descriptor kind the CLI accepts.
_ALL_DESCRIPTORS = ("Z", "Q", "Z[sqrt(-5)]", "Q(sqrt(-5))", "O(-15)",
                    "Z[t]", "Q[t]", "Z[t2,t3]")

def _lowering_exprs(leaves: tuple):
    """Sums, differences, products, powers (0^0 among them), negations and
    nesting of the leaves, with degrees in x and t at most 12."""
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            st.builds(lambda a, op, b: f"({a}){op}({b})",
                      inner, st.sampled_from("+-*"), inner),
            st.builds(lambda a, k: f"({a})^{k}", inner, st.integers(0, 3)),
            st.builds(lambda a: f"-({a})", inner),
            st.builds(lambda a, b: f"{a}*x^{b}", inner, st.integers(0, 5))),
        max_leaves=6).filter(
            lambda text: max(cli._degree_bound(parse_expression(text), 4)[:2])
            <= 12)


def _lowering_strategies(descriptor: str) -> tuple:
    """Division-free expressions over the ring and expressions with at
    least one literal a/b (one of them of integer value), anywhere in a
    sum or product.  The leaves are integers, x, and powers of the
    symbols the ring binds, and one symbol it does not bind."""
    ring = resolve_ring(descriptor)
    bound = [s for s in "tw" if s in ring.symbols]
    unbound = [s for s in "tw" if s not in ring.symbols][0]
    integral = ("0", "1", "3", "x", "x", unbound) + tuple(
        leaf for s in bound for leaf in (s, s, f"{s}^2", f"{s}^3", f"(-{s})^3"))
    division_free = _lowering_exprs(integral)
    fractional = st.builds(
        lambda a, op, f, b: f"({a}){op}{f}*({b})", division_free,
        st.sampled_from("+-*"), st.sampled_from(("1/2", "5/3", "4/2", "7/6")),
        _lowering_exprs(integral + ("1/2", "3/4")))
    return division_free, fractional


#: Every descriptor's division-free and fractional expressions.
_LOWERING_EXPRS = {d: _lowering_strategies(d) for d in _ALL_DESCRIPTORS}


def _same_as_the_dense_lowering(descriptor, text):
    """The lowered terms, assembled over the hull, are the dense lowering's
    value, and parse_poly gives the reference's value or exact error."""
    ring = resolve_ring(descriptor)
    program = parse_expression(text)

    def sparse(program, ring):
        return cli._assemble(cli._lower(program, ring), hull_of(ring))

    assert _outcome(sparse, program, ring) == \
        _outcome(reference_lower, program, ring)
    assert _outcome(parse_poly, text, ring) == \
        _outcome(reference_parse_poly, text, ring)


class TestSparseLowering:
    """The sparse lowering against the dense one it replaced."""

    @pytest.mark.parametrize("descriptor", _ALL_DESCRIPTORS)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_polynomial_as_the_dense_lowering(self, descriptor, data):
        # each example draws a division-free and a fractional text
        for exprs in _LOWERING_EXPRS[descriptor]:
            _same_as_the_dense_lowering(descriptor, data.draw(exprs))

    @pytest.mark.parametrize("descriptor", _ALL_DESCRIPTORS)
    @pytest.mark.parametrize("text", [
        "0^0", "(x-x)^0*t+0^3*w-(x^2)^0", "t*x^2+(w-w)^2", "(t^2-w^2)^3*x",
        "-(1/2*x-w)^3*(t-x^2)^2", "t*x+1/2*x^2", "(1/2+1/2*w)*x+1/2*t",
        "4/2*t*x-(1/2*w)^2", "1/2*t*x^4+x^2", "1/2+1/2*w",
        # t^4096 is the highest power of t a monomial key holds
        "t^4096*x^4096+t^4096*x+x^4096-t^2"])
    def test_examples(self, descriptor, text):
        _same_as_the_dense_lowering(descriptor, text)

    def test_zero_to_the_zero_is_one(self):
        assert parse_poly("0^0", "Z") == Polynomial(ZZ, [1], "x")
        assert parse_poly("(x-x)^0*x^3", "Q") == Polynomial(QQ, [0, 0, 0, 1],
                                                            "x")
        assert parse_poly("0^5+x", "Z[t]") == Polynomial(ZT, [0, 1], "x")


def _compiled(compile, text):
    """compile(text) with every argument's type, or the message and
    position of the ParseError it raised."""
    try:
        return [(op, type(arg), arg, pos) for op, arg, pos in compile(text)]
    except ParseError as exc:
        return str(exc), exc.pos


def _bounded_reference(text):
    """parse_expression on the reference compiler."""
    program = reference_compile(text)
    cli._degree_bound(program, 1)
    return program


#: Characters the scan must refuse or skip as str methods do: Unicode
#: digits that are not ASCII (superscript two, Arabic-Indic four,
#: fullwidth three), whitespace (file separator, ideographic space), a
#: letter and the underscore that str.isalnum() and "_" count.
_FOREIGN = ("\u00b2", "\u0664", "\uff13", "\x1c", "\u3000", "\u00e9", "_")

#: Grammar-shaped text: literals, symbols, fractions and powers joined by
#: operators, juxtaposition or spaces, in parentheses or negated.
_GRAMMAR_TEXTS = st.recursive(
    st.sampled_from(("0", "1", "12", "x", "t", "w", "3/4", "5/0", "2^3",
                     "x^4097", "2^1048577")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(("+", "-", "*", "/", "^", " ", "")),
                  inner).map("".join),
        inner.map(lambda a: f"({a})"), inner.map(lambda a: f"-{a}")),
    max_leaves=10)

_PIECES = ("0", "1", "12", "x", "t", "w", "+", "-", "*", "/", "^", "(", ")",
           " ") + _FOREIGN

_EXPRESSION_TEXTS = st.one_of(
    _GRAMMAR_TEXTS,
    st.builds(lambda text, at, ch: text[:at] + ch + text[at:],
              _GRAMMAR_TEXTS, st.integers(0, 40), st.sampled_from(_FOREIGN)),
    st.lists(st.sampled_from(_PIECES), max_size=20).map("".join))


class TestScanAndCompile:
    """The regex scan and _compile against the tokenizer and parser
    object they replaced."""

    @given(text=_EXPRESSION_TEXTS)
    @example(text="(" * 100 + "x+1" + ")" * 100)
    @example(text="(" * 101 + "x" + ")" * 101)
    @example(text="(" * 3000 + "x" + ")" * 3000)
    @example(text="(" * 101 + "$")
    @example(text="1" * 4300 + "*x^4096+1/" + "9" * 4300)
    @example(text="1" * 4301)
    @example(text="x^" + "1" * 4301)
    @example(text="1/" + "1" * 4301)
    @example(text="1" * 4301 + "+$")
    @example(text="x x+" + "1" * 4301)
    @settings(max_examples=400, deadline=None)
    def test_same_program_or_error(self, text):
        assert _compiled(parse_expression, text) == \
            _compiled(_bounded_reference, text)


def _record_fractions(mp, made):
    """Append to made every Fraction constructed while mp is active:
    through Fraction(...) or, from Python 3.12 on, the arithmetic's
    _from_coprime_ints."""
    new = Fraction.__new__

    def fraction_new(cls, *args, **kwargs):
        made.append(Fraction)
        return new(cls, *args, **kwargs)

    mp.setattr(Fraction, "__new__", fraction_new)
    coprime = Fraction.__dict__.get("_from_coprime_ints")
    if coprime is not None:
        def from_coprime_ints(cls, numerator, denominator):
            made.append(Fraction)
            return coprime.__func__(cls, numerator, denominator)

        mp.setattr(Fraction, "_from_coprime_ints",
                   classmethod(from_coprime_ints))


def _record_polynomials(mp, made):
    """Append to made the variable of every Polynomial constructed while
    mp is active: through its constructor or through poly._closed."""
    init, closed = Polynomial.__init__, poly._closed

    def polynomial_init(self, domain, coeffs=(), var="x"):
        made.append(var)
        init(self, domain, coeffs, var)

    def closed_polynomial(domain, cs, var):
        made.append(var)
        return closed(domain, cs, var)

    mp.setattr(Polynomial, "__init__", polynomial_init)
    mp.setattr(poly, "_closed", closed_polynomial)


#: Division-free texts over the rings below their hulls, with powers of w
#: and of t (and no t^1 term over Z[t2,t3]).
_DIVISION_FREE_TEXTS = (
    ("Z", "(x+3)^5*(2*x-1)^3-7*x+0^0"),
    ("Z[sqrt(-5)]", "(x+w)^4*(w*x-3)^2+(1-w)^3"),
    ("O(-15)", "(x+w)^4*(w*x-3)^2+(1-w)^3"),
    ("Z[t]", "(x+t)^4*(x-t^2)^2+t^5*x"),
    ("Z[t2,t3]", "(x+t^2)^4*(x-t^3)^2+t^5*x-t^2"),
)


class TestIntegralLowering:
    """Text without division is evaluated on ints and ring elements."""

    @pytest.mark.parametrize("descriptor, text", _DIVISION_FREE_TEXTS)
    def test_no_fraction_and_no_t_polynomial_before_the_assembly(
            self, descriptor, text):
        ring = resolve_ring(descriptor)
        # the oracle runs first, and builds the ring's cached symbols too
        expected = reference_parse_poly(text, ring)
        program = parse_expression(text)
        made = []
        with pytest.MonkeyPatch.context() as mp:
            _record_polynomials(mp, made)
            terms = cli._lower(program, ring)
        assert made == []
        with pytest.MonkeyPatch.context() as mp:
            _record_fractions(mp, made)
            f = parse_poly(text, ring)
        assert made == []
        assert f == expected
        # the assembly builds one polynomial in t per nonzero coefficient
        with pytest.MonkeyPatch.context() as mp:
            _record_polynomials(mp, made)
            assert cli._assemble(terms, ring) == expected
        nonzero = sum(c != 0 for c in expected.coeffs)
        assert made.count("t") == (nonzero if "t" in ring.symbols else 0)


#: Coefficients for Z and Q, for the quadratic rings, and for the t-rings,
#: each with the ring descriptors they belong to; the last descriptor of
#: each group is rejected.
_COEFF_SETS = (("1", "2", "-3", "1/2", "0"), ("1", "w", "(1+w)", "-2"),
               ("1", "t", "t^2", "(1-t)", "3"))
_RINGS_BY_SET = (("Z", "Q", "F_9"),
                 ("Z[sqrt(-5)]", "Q(sqrt(-5))", "Z[sqrt(-6)]", "O(-15)",
                  "O(-3)", "Z[sqrt(-15)]", "Z[sqrt(3)]"),
                 ("Z[t]", "Q[t]", "Z[t2,t3]", ""))
_COMMANDS = ("compose", "decompose", "quartic", "witness", "check-subring",
             "demo-q1", "demo-q2")
#: Loose pieces of command lines: every subcommand and flag, the ring
#: descriptors and option values.  "-h" and "--help" are left out:
#: argparse answers them by exiting the process.
_WORDS = _COMMANDS + sum(_RINGS_BY_SET, ()) + (
    "frobnicate", "--json", "--full", "--fail-on-indecomposable", "--over",
    "ring", "field", "--inner-degree", "--ring", "--builtin", "--element",
    "--factorization", "--trials", "--seed", "--", "0", "1", "2", "3", "-1",
    "2,3", "1+w,1-w", "w,-w", "6")


def _exprs(coeffs: tuple):
    """Short expressions of degree at most 8 in x over the coefficients."""
    terms = st.builds(lambda c, k: c if k == 0 else f"{c}*x^{k}",
                      st.sampled_from(coeffs), st.integers(0, 4))
    return (st.lists(terms, min_size=1, max_size=4).map("+".join)
            | st.builds(lambda a, b: f"({a})*({b})", terms, terms)
            | st.builds(lambda a: f"-({a})^2", terms))


_EXPRS = (st.sampled_from(_COEFF_SETS).flatmap(_exprs)
          | st.text("xtw0123456789+-*/^(), ", max_size=10))
_COEFFS = st.sampled_from(sum(_COEFF_SETS, ()))
_RINGS = st.sampled_from(sum(_RINGS_BY_SET, ()))
#: A ring descriptor and an expression over its coefficients.
_RING_EXPRS = st.sampled_from(range(3)).flatmap(
    lambda i: st.tuples(st.sampled_from(_RINGS_BY_SET[i]),
                        _exprs(_COEFF_SETS[i])))
_OPTIONS = st.lists(st.sampled_from((
    ("--json",), ("--full",), ("--fail-on-indecomposable",),
    ("--over", "ring"), ("--over", "field"), ("--inner-degree", "2"),
    ("--inner-degree", "3"), ("--inner-degree", "0"))), max_size=3).map(
        lambda options: [word for option in options for word in option])
_FACTORS = st.lists(_COEFFS | st.sampled_from(("2", "3", "1-w", "6")),
                    min_size=1, max_size=3).map(",".join)

#: Command lines shaped like each subcommand's usage, and loose ones.
_ARGVS = st.one_of(
    st.builds(lambda rf, o, g: ["compose", "--ring", rf[0], *o, "--",
                                rf[1], g], _RING_EXPRS, _OPTIONS, _EXPRS),
    st.builds(lambda c, rf, o: [c, "--ring", rf[0], *o, "--", rf[1]],
              st.sampled_from(("decompose", "quartic", "check-subring")),
              _RING_EXPRS, _OPTIONS),
    st.builds(lambda r, e, a, b: ["witness", "--ring", r, "--element", e,
                                  "--factorization", a, "--factorization", b],
              _RINGS, _COEFFS | st.sampled_from(("6", "4")), _FACTORS,
              _FACTORS),
    st.builds(lambda r, o: ["witness", *o, "--builtin", r], _RINGS, _OPTIONS),
    st.builds(lambda n, s, o: ["demo-q1", "--trials", n, "--seed", s, *o],
              st.sampled_from(("0", "1", "3", "-1", "x")),
              st.sampled_from(("0", "7", "-2")), _OPTIONS),
    st.builds(lambda o: ["demo-q2", *o], _OPTIONS),
    st.builds(lambda head, rest: head + rest,
              st.lists(st.sampled_from(_COMMANDS), max_size=1),
              st.lists(st.sampled_from(_WORDS) | _EXPRS, max_size=7)))


class TestFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_ARGVS)
    def test_any_command_line_exits_0_1_or_2(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()


class TestCommands:
    def test_compose(self, capsys):
        code, out, err = run_cli(["compose", "x^2+2*x", "x^2"], capsys)
        assert code == 0
        assert out.strip() == "x^4 + 2*x^2"

    def test_compose_json(self, capsys):
        code, out, err = run_cli(["compose", "--json", "x^2", "x^2"], capsys)
        payload = json.loads(out)
        assert payload["command"] == "compose"
        assert payload["status"] == "ok"
        assert payload["evidence"]["composition_text"] == "x^4"

    def test_decompose_found(self, capsys):
        code, out, err = run_cli(
            ["decompose", "--ring", "Z", "--json", "x^4+2*x^2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "decomposable_over_ring"
        assert payload["g"] == [["0", "0"], ["2", "0"], ["1", "0"]]
        assert payload["h"] == [["0", "0"], ["0", "0"], ["1", "0"]]

    def test_decompose_indecomposable_exit_codes(self, capsys):
        code, _, _ = run_cli(["decompose", "--ring", "Z", "x^4+x"], capsys)
        assert code == 0
        code, _, _ = run_cli(["decompose", "--ring", "Z",
                              "--fail-on-indecomposable", "x^4+x"], capsys)
        assert code == 2

    def test_decompose_full_chain(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--ring", "Q", "--full", "--json", "x^8"], capsys)
        payload = json.loads(out)
        assert payload["status"] == "decomposable_over_field"
        assert payload["evidence"]["chain_text"] == ["x^2", "x^2", "x^2"]

    def test_decompose_full_refuses_an_inner_degree(self, capsys):
        # 3 does not divide 8: a chain would ignore the pinned degree
        code, out, err = run_cli(
            ["decompose", "--full", "--inner-degree", "3", "x^8"], capsys)
        assert code == 1 and out == ""
        assert err == "error: --full tries every inner degree; " \
                      "drop --inner-degree\n"

    @pytest.mark.parametrize("manual, named", [
        (["--ring", "Z", "--element", "6", "--factorization", "2,3",
          "--factorization", "6"], "--ring, --element, --factorization"),
        (["--ring", "Z"], "--ring"),
        (["--element", "6"], "--element"),
    ])
    def test_witness_builtin_refuses_the_manual_flags(self, manual, named,
                                                      capsys):
        code, out, err = run_cli(["witness", "--builtin", *manual], capsys)
        assert code == 1 and out == ""
        assert err == f"error: --builtin runs a built-in example; " \
                      f"drop {named}\n"

    def test_decompose_over_field_flag(self, capsys):
        code, out, _ = run_cli(
            ["decompose", "--ring", "Z", "--over", "field", "--json",
             "2*x^4+x^2"], capsys)
        payload = json.loads(out)
        assert payload["status"] == "decomposable_over_field"

    def test_ring_indecomposable_with_field_evidence(self, capsys):
        f = "(-4-2*w)*x^4 + (6-6*w)*x^3 + 11*x^2 + (1+w)*x"
        code, out, _ = run_cli(
            ["quartic", "--ring", "Z[sqrt(-5)]", "--json", f], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "indecomposable_over_ring"
        assert payload["g"] is None
        assert payload["evidence"]["field_h_text"] == "x^2 + (1/2+1/2*w)*x"
        by_u = {c["u"]: c for c in payload["evidence"]["candidates"]}
        assert by_u["1-w"]["square_divides_lead"] is True
        assert by_u["1-w"]["divides_linear"] is False

    def test_quartic_fail_flag(self, capsys):
        f = "(-4-2*w)*x^4 + (6-6*w)*x^3 + 11*x^2 + (1+w)*x"
        code, _, _ = run_cli(["quartic", "--ring", "Z[sqrt(-5)]",
                              "--fail-on-indecomposable", f], capsys)
        assert code == 2

    def test_witness_builtin_text_matches_build(self, capsys):
        code, out, _ = run_cli(["witness", "--builtin"], capsys)
        assert code == 0
        assert "f = (-4-2*w)*x^4 + (6-6*w)*x^3 + 11*x^2 + (1+w)*x" in out
        assert "PASS ring_indecomposability" in out

    def test_witness_manual_equals_builtin(self, capsys):
        code1, out1, _ = run_cli(
            ["witness", "--ring", "Z[sqrt(-5)]", "--element", "6",
             "--factorization", "2,3", "--factorization", "1+w,1-w",
             "--json"], capsys)
        code2, out2, _ = run_cli(["witness", "--builtin", "--json"], capsys)
        assert code1 == code2 == 0
        p1, p2 = json.loads(out1), json.loads(out2)
        assert p1["evidence"]["f_text"] == p2["evidence"]["f_text"]
        assert p1["status"] == p2["status"] == "witness_verified"

    def test_witness_equivalent_factorizations(self, capsys):
        code, out, _ = run_cli(
            ["witness", "--ring", "Z", "--element", "6",
             "--factorization=2,3", "--factorization=-3,-2", "--json"],
            capsys)
        assert code == 0
        assert json.loads(out)["status"] == "equivalent_factorizations"

    def test_check_subring(self, capsys):
        code, out, _ = run_cli(
            ["check-subring", "--ring", "Z[t2,t3]", "t^3+2"], capsys)
        assert code == 0 and "is a member" in out
        code, out, _ = run_cli(
            ["check-subring", "--ring", "Z[t2,t3]", "--json", "t^3+t"],
            capsys)
        assert json.loads(out)["status"] == "not_member"

    def test_demo_q2_final_line(self, capsys):
        code, out, _ = run_cli(["demo-q2"], capsys)
        assert code == 0
        assert out.rstrip().splitlines()[-1] == \
            "indecomposable over Z[sqrt(-5)], decomposable over Q(sqrt(-5))"

    def test_demo_q1_small(self, capsys):
        code, out, _ = run_cli(["demo-q1", "--trials", "10", "--json"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["evidence"]["failures"] == 0

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_demo_q1_needs_a_trial(self, trials, capsys):
        code, out, err = run_cli(["demo-q1", "--trials", trials], capsys)
        assert code == 1 and out == ""
        assert err == f"error: --trials must be at least 1, not {trials}\n"

    def test_json_output_is_byte_stable(self, capsys):
        argv = ["witness", "--builtin", "--json"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2
        argv = ["decompose", "--ring", "Z[sqrt(-5)]", "--json",
                "x^4+2*w*x^2+1"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2


class TestErrorHandling:
    def test_closed_stdout_exits_1_without_traceback(self):
        # the read end is closed before the child starts, so its first
        # write fails every time; a pipe into `head` would race
        src = os.path.dirname(os.path.dirname(polydecomp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c",
                 "import sys; from polydecomp.cli import main; "
                 "sys.exit(main())", "demo-q2"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == b""

    def test_python_m_polydecomp_runs_the_command_line(self):
        # the package runs as a module without the RuntimeWarning that
        # running its cli submodule would write
        src = os.path.dirname(os.path.dirname(polydecomp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "polydecomp", "demo-q2"],
            capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode().splitlines()[-1] == (
            "indecomposable over Z[sqrt(-5)], decomposable over "
            "Q(sqrt(-5))")
        proc = subprocess.run(
            [sys.executable, "-m", "polydecomp", "decompose", "--ring",
             "Z[t2,t3]", "x^4+t*x^2"],
            capture_output=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == (b"error: coefficient t of x^2 is not in "
                               b"Z[t2,t3]\n")

    def test_syntax_error_exits_1(self, capsys):
        code, out, err = run_cli(["compose", "2x", "x"], capsys)
        assert code == 1
        assert "implicit multiplication" in err

    def test_membership_error_exits_1(self, capsys):
        code, _, err = run_cli(["decompose", "--ring", "Z", "1/2*x^4"],
                               capsys)
        assert code == 1
        assert "does not lie in Z" in err

    def test_unknown_ring_exits_1(self, capsys):
        code, _, err = run_cli(["decompose", "--ring", "F_9", "x^4"], capsys)
        assert code == 1

    def test_missing_argument_exits_1(self, capsys):
        code, _, err = run_cli(["decompose"], capsys)
        assert code == 1

    def test_unknown_command_exits_1(self, capsys):
        code, _, err = run_cli(["transmogrify", "x"], capsys)
        assert code == 1

    def test_field_over_ring_conflict(self, capsys):
        code, _, err = run_cli(
            ["decompose", "--ring", "Q", "--over", "ring", "x^4"], capsys)
        assert code == 1

    def test_deep_nesting_exits_1(self, capsys):
        code, out, err = run_cli(
            ["compose", "--ring", "Q", "(" * 3000 + "x" + ")" * 3000, "x^2"],
            capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: syntax error at position 100:")

    def test_non_ascii_digit_exits_1(self, capsys):
        code, out, err = run_cli(["decompose", "x^\u00b2"], capsys)
        assert code == 1 and out == ""
        assert err == ("error: syntax error at position 2: "
                       "unexpected character '\u00b2'\n")

    @pytest.mark.parametrize("text, pos", [
        ("x^4+" + "1" * 4301, 4),
        ("x^4+1/" + "1" * 4301, 6),
        ("x^" + "1" * 4301, 2),
    ])
    def test_over_long_literal_exits_1(self, text, pos, capsys):
        code, out, err = run_cli(["decompose", text], capsys)
        assert code == 1 and out == ""
        assert err == (f"error: syntax error at position {pos}: "
                       f"number literal of 4301 digits is too long\n")

    def test_outputs_past_the_digit_limit_render(self, capsys):
        # 2^20000 has 6021 digits, past CPython's 4300-digit int/str limit,
        # so the printed constant is read back one digit at a time
        code, out, err = run_cli(
            ["compose", "--ring", "Z", "x+2^20000", "x"], capsys)
        assert code == 0 and err == ""
        constant = out.strip().split(" + ")[1]
        value = 0
        for digit in constant:
            value = value * 10 + "0123456789".index(digit)
        assert len(constant) == 6021 and value == 2 ** 20000
        code, out, err = run_cli(
            ["compose", "--ring", "Z", "--json", "x+2^20000", "x"], capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["evidence"]["composition"][0] \
            == [constant, "0"]

    @pytest.mark.parametrize("as_json", [False, True])
    def test_compose_renders_the_composition_once(self, as_json, capsys,
                                                  monkeypatch):
        # the constant 2^100000 is rendered for g's pairs, g's text, f's
        # pairs and f's text, and f's text serves both output modes
        from polydecomp import domains
        big = 2 ** 100000
        calls = []
        original = domains._decimal

        def counted(x):
            if x == big:
                calls.append(x)
            return original(x)

        monkeypatch.setattr(domains, "_decimal", counted)
        monkeypatch.setattr(cli, "_decimal", counted)
        argv = ["compose", "--ring", "Z", "x+2^100000", "x"]
        code, out, err = run_cli(argv + ["--json"] if as_json else argv,
                                 capsys)
        assert code == 0 and err == ""
        assert len(calls) == 4

    def test_witness_over_z_with_a_19_digit_factor_decides(self, capsys):
        # 1000000000000000027 = 7^2 * 20347 * 1000003 * 1003003; deciding
        # it must not trial-divide to its square root
        start = time.perf_counter()
        code, out, err = run_cli(
            ["witness", "--ring", "Z", "--element", "2000000000000000054",
             "--factorization", "2,1000000000000000027",
             "--factorization=-2,-1000000000000000027"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err == ("error: first list contains a reducible factor: "
                       "1000000000000000027\n")

    def test_witness_over_z_names_a_long_reducible_factor(self, capsys):
        # 2^15000 has 4516 digits, past CPython's int/str limit
        code, out, err = run_cli(
            ["witness", "--ring", "Z", "--element", "2^15001",
             "--factorization", "2^15000,2", "--factorization", "2,2^15000"],
            capsys)
        assert code == 1 and out == ""
        prefix = "error: first list contains a reducible factor: "
        assert err.startswith(prefix) and err.endswith("\n")
        digits = err[len(prefix):-1]
        value = 0
        for digit in digits:
            value = value * 10 + "0123456789".index(digit)
        assert len(digits) == 4516 and value == 2 ** 15000

    def test_witness_over_z_past_the_primality_bound_exits_1(self, capsys):
        p = 2 ** 89 - 1
        code, out, err = run_cli(
            ["witness", "--ring", "Z", "--element", str(2 * p),
             "--factorization", f"2,{p}", f"--factorization=-2,-{p}"],
            capsys)
        assert code == 1 and out == ""
        assert "3317044064679887385961981" in err

    @pytest.mark.parametrize("as_json", [False, True])
    def test_witness_over_z_renders_an_element_past_4300_digits(
            self, as_json, capsys):
        # 2^14300 has 4305 digits, and two equal lists are equivalent
        twos = ",".join(["2"] * 14300)
        argv = ["witness", "--ring", "Z", "--element", "2^14300",
                f"--factorization={twos}", f"--factorization={twos}"]
        code, out, err = run_cli(argv + ["--json"] if as_json else argv,
                                 capsys)
        assert code == 0 and err == ""
        if as_json:
            payload = json.loads(out)
            assert payload["status"] == "equivalent_factorizations"
            digits = payload["evidence"]["element"]
            assert len(digits) == 4305 and digits[:5] == "53572"
            assert int(digits[-4000:]) == 2 ** 14300 % 10 ** 4000
        else:
            assert out == ("the two factorizations are equivalent; "
                           "no witness arises\n")

    @pytest.mark.parametrize("argv, message", [
        (["compose", "x^256+x", "x^256+x"], "degree in x may exceed 4096"),
        (["compose", "x^4096+x", "x^4096+x"], "degree in x may exceed 4096"),
        (["compose", "--ring", "Z[t]", "x^2", "t^4096*x"],
         "degree in t may exceed 4096"),
        (["compose", "--ring", "Z", "x^2", "2^1048576"],
         "a constant may exceed 1048576 bits"),
    ])
    def test_composition_past_the_parser_bounds_exits_1(self, argv, message,
                                                         capsys):
        # the outer expression with x standing for the inner one is
        # bounded like one typed expression, at the outer operator
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and out == ""
        assert err == f"error: syntax error at position 1: {message}\n"

    def test_composition_at_the_degree_bound_exits_0(self, capsys):
        code, out, err = run_cli(["compose", "x^64+x", "x^64+x"], capsys)
        assert code == 0 and err == ""
        assert out.startswith("x^4096 + 64*x^4033 + ")
        assert out.endswith(" + 2*x^64 + x\n")

    def test_zero_polynomial_has_nothing_to_decompose(self, capsys):
        code, out, err = run_cli(["decompose", "x-x"], capsys)
        assert code == 1 and out == ""
        assert "nothing to decompose" in err

    @pytest.mark.parametrize("argv", [
        ["decompose", "--ring", "Q", "x^100000000"],
        ["compose", "--ring", "Q", "(x+1)^3000*(x+1)^3000", "x^2"],
        ["decompose", "--ring", "Z[t]", "x^4 + t^1000000000"],
    ])
    def test_degree_past_the_bound_exits_1(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: syntax error at position ")
        assert "may exceed 4096" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["decompose", "--ring", "Z", "x^4+2^10000000000"],
        ["decompose", "--ring", "Z[sqrt(-5)]", "x^4+w^10000000000"],
    ])
    def test_constant_past_the_bound_exits_1(self, argv, capsys, monkeypatch):
        def no_lowering(node, ring):
            raise AssertionError("lowered an expression past the bound")

        monkeypatch.setattr(cli, "_lower", no_lowering)
        code, out, err = run_cli(argv, capsys)
        assert code == 1 and out == ""
        assert err.startswith("error: syntax error at position 5:")
        assert "may exceed 1048576 bits" in err and "Traceback" not in err

    def test_inner_degree_zero_is_rejected(self, capsys):
        for ring in ("Q", "Z"):
            code, out, err = run_cli(["decompose", "--ring", ring,
                                      "--inner-degree", "0", "x^4+x^2"],
                                     capsys)
            assert code == 1 and out == ""
            assert "inner degree 0 is not a proper divisor of 4" in err

    def test_quartic_on_wrong_degree(self, capsys):
        code, _, err = run_cli(["quartic", "--ring", "Z", "x^6+x"], capsys)
        assert code == 1

    def test_witness_without_enough_flags(self, capsys):
        code, _, err = run_cli(["witness", "--ring", "Z[sqrt(-5)]"], capsys)
        assert code == 1

    def test_witness_parses_the_element_before_the_ring_refuses(self,
                                                                capsys):
        # the capability check lives in FactorizationPair, which runs
        # after --element and --factorization are parsed
        argv = ["witness", "--ring", "Q", "--factorization", "2,3",
                "--factorization", "3,2", "--element"]
        code, out, err = run_cli(argv + ["6+"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: syntax error at position 2")
        code, out, err = run_cli(argv + ["6"], capsys)
        assert (code, out) == (1, "")
        assert err == ("error: Q does not support factorization witnesses; "
                       "use Z or an imaginary-quadratic ring\n")

    def test_internal_capability_error_exits_1(self, capsys):
        code, _, err = run_cli(
            ["quartic", "--ring", "Z[t]", "t*x^4+x^2"], capsys)
        assert code == 1


class TestFormatResult:
    def test_parser_is_built_once(self):
        parser = build_parser()
        assert build_parser() is parser
        # parsing leaves no state behind in the shared parser
        assert parser.parse_args(["compose", "--json", "x^2", "x"]).json
        assert not parser.parse_args(["compose", "x^2", "x"]).json

    def test_json_and_text_modes(self):
        ns = build_parser().parse_args(["compose", "x^2", "x^2"])
        result = run(ns)
        assert format_result(result, False) == "x^4"
        parsed = json.loads(format_result(result, True))
        assert parsed["ring"] == "Q"

    def test_payload_keys_are_uniform(self):
        for argv in (["compose", "x^2", "x^3"],
                     ["decompose", "--ring", "Z", "x^4+2*x^2"],
                     ["quartic", "--ring", "Z", "x^4+x^2"],
                     ["witness", "--builtin"],
                     ["check-subring", "--ring", "Z", "5"],
                     ["demo-q1", "--trials", "2"],
                     ["demo-q2"]):
            ns = build_parser().parse_args(argv)
            payload = run(ns).payload
            assert set(payload) == {"command", "ring", "status", "g", "h",
                                    "evidence"}

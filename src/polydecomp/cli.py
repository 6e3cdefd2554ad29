"""Command-line front-end.

Subcommands: compose, decompose, quartic, witness, check-subring,
demo-q1, demo-q2.  Polynomials are written in a small expression grammar

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' uint)?
    base   := int | int '/' uint | 'x' | 't' | 'w' | '(' expr ')'

over a ring chosen by a descriptor string: "Z", "Q", "Z[sqrt(-5)]",
"Q(sqrt(-5))", "O(-15)", "Z[t]", "Q[t]", "Z[t2,t3]"; ``resolve_ring``
returns the domain itself, whose ``name`` is the canonical descriptor.
The domain binds the symbols (its ``symbols``): w is the quadratic
generator of the ambient ring (sqrt(d), or (1+sqrt(d))/2 for the O(d)
rings); t is the polynomial indeterminate of the t-rings.  Expressions
are evaluated exactly on sparse monomials x^i t^j with scalar
coefficients: ints and elements of the integral ring (w among them) when
every literal is an integer, Fractions and hull elements otherwise.  The
polynomial over the ring is built once, from the final terms, and its
coefficients are checked for membership there, so "4/2" is a fine
integer, while "1/2+1/2*w" over O(-15) is 3/4+1/4*sqrt(-15), not a member:
w already is the half-basis generator there.  This module only parses and
renders.

``main`` parses argv in one argparse pass: when argv[0] names a
subcommand, argv[1:] goes straight to that subcommand's parser, which sets
``command`` itself; any other argv (help, no command, an unknown command)
goes to the top-level parser, which hands a subcommand's arguments to the
same subparser.  Both paths give the same namespace, help text and usage
errors.

A handler returns a CommandResult that records its decision: status, exit
code and the objects it decided on.  The --json object and the text lines
are rendered from that record when format_result reads them, so a run
renders only the output it prints.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache, cached_property
from typing import Any, Callable, Optional

from .poly import Polynomial
from .poly import compose as poly_compose
from .domains import (QuadraticElement, QuadraticIntRing, QuadraticField,
                      Tier, QQ, QT, ZT, ZT23, ZZ, descend_poly, embed_poly,
                      hull_of, _decimal)
from .decomp import (_first_split, decompose_fully, decompose_over_ring,
                     proper_inner_degrees, quartic_field_decompose,
                     quartic_ring_decide)
from .witness import (FactorizationPair, builtin_examples, run_pipeline,
                      validate_inequivalent)


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"syntax error at position {pos}: {message}")
        self.pos = pos


#: A compiled expression: (op, arg, pos) instructions in postfix order.
#: op is "num" (arg an int, or a Fraction for a literal a/b), "sym" (arg
#: "x", "t" or "w"), "neg", "+", "-", "*" or "^" (arg the exponent); pos
#: is where the source wrote it.
Program = list[tuple[str, Any, int]]

#: One token each: a run of ASCII digits, a symbol not followed by a
#: letter, digit or "_" (Unicode's, like str.isalnum), an operator, or any
#: other character but whitespace, which no token starts with.
_TOKEN_RE = re.compile(
    r"(?P<num>[0-9]+)|(?P<name>[xtw])(?!\w)|([-+*/^()])|(?P<bad>\S)")


def _scan(text: str) -> list[tuple[str, str, int]]:
    """The (kind, text, pos) tokens of the whole text, then ("end", "",
    len(text)); kind is "num", "name" or the operator itself.

    Raises ParseError at the first character no token starts with.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup or m[0]
        if kind == "bad":
            ch = m[0]
            raise ParseError(f"unknown symbol starting with {ch!r}"
                             if ch in "xtw" else
                             f"unexpected character {ch!r}", m.start())
        tokens.append((kind, m[0], m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


#: Deepest parenthesis nesting the parser accepts.  The productions
#: recurse once per level, so a bound keeps them inside Python's stack.
_MAX_NESTING = 100


def _compile(tokens: list[tuple[str, str, int]]) -> Program:
    """Compile tokens to a postfix Program by recursive descent.

    The productions share one index into tokens and pass the parenthesis
    depth down.
    """
    program: Program = []
    i = 0

    def number(error: str) -> int:
        """Take the "num" token at i and return its value; raise error
        at any other token."""
        nonlocal i
        kind, digits, pos = tokens[i]
        if kind != "num":
            raise ParseError(error, pos)
        i += 1
        try:
            # int() refuses digit strings past the interpreter's conversion
            # limit (4300 digits by default), which is a syntax error here
            return int(digits)
        except ValueError:
            raise ParseError(f"number literal of {len(digits)} digits is "
                             f"too long", pos) from None

    def expr(depth: int) -> None:
        nonlocal i
        kind, _, pos = tokens[i]
        if kind == "-":
            i += 1
            term(depth)
            program.append(("neg", None, pos))
        else:
            term(depth)
        while tokens[i][0] in ("+", "-"):
            kind, _, pos = tokens[i]
            i += 1
            term(depth)
            program.append((kind, None, pos))

    def term(depth: int) -> None:
        nonlocal i
        factor(depth)
        while True:
            kind, _, pos = tokens[i]
            if kind == "*":
                i += 1
                factor(depth)
                program.append(("*", None, pos))
            elif kind in ("num", "name", "("):
                raise ParseError(
                    "implicit multiplication is not allowed; insert '*'", pos)
            else:
                return

    def factor(depth: int) -> None:
        nonlocal i
        base(depth)
        kind, _, pos = tokens[i]
        if kind == "^":
            i += 1
            program.append(("^", number(
                "exponent must be a nonnegative integer literal"), pos))

    def base(depth: int) -> None:
        nonlocal i
        kind, text, pos = tokens[i]
        if kind == "name":
            i += 1
            program.append(("sym", text, pos))
        elif kind == "(":
            if depth == _MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {_MAX_NESTING}", pos)
            i += 1
            expr(depth + 1)
            kind, _, pos = tokens[i]
            if kind != ")":
                raise ParseError("expected ')'", pos)
            i += 1
        else:
            value = number("expected a number, a symbol, or '('")
            if tokens[i][0] == "/":
                i += 1
                denominator = number("denominator must be an unsigned integer")
                if denominator == 0:
                    raise ParseError("denominator is zero", tokens[i - 1][2])
                value = Fraction(value, denominator)
            program.append(("num", value, pos))

    expr(0)
    kind, _, pos = tokens[i]
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return program


#: Highest degree in x or in t an expression may reach.  Lowering packs
#: x^i t^j into one key (_STRIDE) and builds a dense polynomial at the end,
#: so the bound is checked on the program first.
_MAX_DEGREE = 4096

#: Most bits a constant of an expression may reach.  Squaring doubles the
#: size of a constant, so a power like 2^k is bounded on the program too.
_MAX_BITS = 1 << 20


def _bits(n: int) -> int:
    """ceil(log2 |n|), and 0 for n = 0."""
    return max(abs(n) - 1, 0).bit_length()


def _degree_bound(program: Program, w_bits: int,
                  x: tuple[int, int, int] = (1, 0, 0)) -> tuple[int, int, int]:
    """Upper bounds on the degrees in x and in t of the program's value,
    and on the bit size of its constants, counting w as ``w_bits`` bits
    and x as an expression with the bounds ``x``.

    Raises ParseError, at the operator that crosses it, as soon as a
    degree exceeds _MAX_DEGREE or the size exceeds _MAX_BITS.
    """
    stack = []
    push, pop = stack.append, stack.pop
    t, w = (0, 1, 0), (0, 0, w_bits)
    for op, arg, pos in program:
        if op == "num":
            # the parser stores an integer literal as an int, a/b as a Fraction
            push((0, 0, _bits(arg) if arg.__class__ is int else
                  _bits(arg.numerator) + _bits(arg.denominator)))
            continue
        if op == "sym":
            push(x if arg == "x" else t if arg == "t" else w)
            continue
        if op == "neg":
            continue
        if op == "^":
            dx, dt, b = pop()
            dx *= arg
            dt *= arg
            b *= arg
        else:
            (rx, rt, rb), (dx, dt, b) = pop(), pop()
            if op == "*":
                dx += rx
                dt += rt
                b += rb
            else:
                dx = dx if dx > rx else rx
                dt = dt if dt > rt else rt
                b = (b if b > rb else rb) + 1
        if dx > _MAX_DEGREE or dt > _MAX_DEGREE or b > _MAX_BITS:
            _cap_error(dx, dt, pos)
        push((dx, dt, b))
    return pop()


def _cap_error(dx: int, dt: int, pos: int) -> None:
    """Raise the ParseError for bounds of which one crosses its cap."""
    if dx > _MAX_DEGREE:
        raise ParseError(f"degree in x may exceed {_MAX_DEGREE}", pos)
    if dt > _MAX_DEGREE:
        raise ParseError(f"degree in t may exceed {_MAX_DEGREE}", pos)
    raise ParseError(f"a constant may exceed {_MAX_BITS} bits", pos)


def _parse(text: str, w_bits: int) -> Program:
    program = _compile(_scan(text))
    _degree_bound(program, w_bits)
    return program


def parse_expression(text: str) -> Program:
    """Compile text into a postfix Program whose degrees and constants
    are bounded.

    No ring is known here, so w counts as one bit; parse_poly counts it
    for its ring.
    """
    return _parse(text, 1)


# ---------------------------------------------------------------------------
# ring descriptors
# ---------------------------------------------------------------------------

#: The quadratic descriptors, d in ASCII digits as numbers in expressions
#: are; the name of the group that matched is the form's first letter.
_QUADRATIC_RE = re.compile(r"Z\[sqrt\((?P<Z>-?[0-9]+)\)\]"
                           r"|Q\(sqrt\((?P<Q>-?[0-9]+)\)\)"
                           r"|O\((?P<O>-?[0-9]+)\)")

_SUPPORTED = ('"Z", "Q", "Z[sqrt(d)]", "Q(sqrt(d))", "O(d)", '
              '"Z[t]", "Q[t]", "Z[t2,t3]"')


#: The descriptors of the rings that take no parameter.
_NAMED_RINGS = {"Z": ZZ, "Q": QQ, "Z[t]": ZT, "Q[t]": QT, "Z[t2,t3]": ZT23}


def resolve_ring(descriptor: str) -> Any:
    """The domain a descriptor string names."""
    text = "".join(descriptor.split())
    if text in _NAMED_RINGS:
        return _NAMED_RINGS[text]
    m = _QUADRATIC_RE.fullmatch(text)
    if not m:
        raise ValueError(f"unknown ring descriptor {descriptor!r}; "
                         f"supported: {_SUPPORTED}")
    # Decimal reads d at any length, where int() stops at 4300 digits
    form = m.lastgroup
    d = int(Decimal(m[form]))
    if form == "Z" and d % 4 == 1:
        raise ValueError(
            "Z[sqrt({0})] is not supported for d = 1 (mod 4); use O({0}), "
            "whose integral basis includes (1+sqrt({0}))/2"
            .format(_decimal(d)))
    return (QuadraticField if form == "Q" else QuadraticIntRing)(d)


#: The key of the monomial x^i t^j is i*_STRIDE + j.  No value of a
#: bounded program reaches t^_STRIDE, so the t exponents of a product or a
#: power never carry into the x exponent: monomials multiply by adding
#: keys, and x is the key _STRIDE.
_STRIDE = _MAX_DEGREE + 1

#: Sparse terms: {monomial key: nonzero scalar coefficient}.  Every
#: Terms on the lowering stack is its own dict, so _add and _neg may
#: change their operand in place.
Terms = dict[int, Any]


def _add(left: Terms, right: Terms) -> Terms:
    """left + right, merged into left."""
    for k, c in right.items():
        if k in left:
            c = left[k] + c
            if c == 0:
                del left[k]
                continue
        left[k] = c
    return left


def _neg(terms: Terms) -> Terms:
    """-terms, negated in place."""
    for k, c in terms.items():
        terms[k] = -c
    return terms


def _mul(left: Terms, right: Terms) -> Terms:
    if len(left) == 1 and len(right) == 1:
        # the scalars lie in an integral domain: the product is no zero
        (i, a), = left.items()
        (j, b), = right.items()
        return {i + j: a * b}
    out = {}
    for i, a in left.items():
        for j, b in right.items():
            k = i + j
            out[k] = out[k] + a * b if k in out else a * b
    return {k: c for k, c in out.items() if c != 0}


def _pow(base: Terms, n: int) -> Terms:
    if len(base) == 1:
        (k, c), = base.items()
        return {k * n: c ** n}
    # square and multiply, never computing the last square
    result = {0: 1}
    while n:
        if n & 1:
            result = _mul(result, base)
        n >>= 1
        if n:
            base = _mul(base, base)
    return result


def _w_bits(ring: Any) -> int:
    """Bits counted for a factor w over the ring: 1 where w is unbound."""
    return ring.symbols["w"][1] if "w" in ring.symbols else 1


def _lower(program: Program, ring: Any) -> Terms:
    """Evaluate a bounded program on sparse monomials x^i t^j.

    The scalars are ints, and w is the element of the ring's integral
    ring, when every literal is an integer (4/2 is one); otherwise they
    are Fractions and w is the hull's.  A power of one term is one power of its
    coefficient.  No polynomial is built here (see _assemble).
    """
    integral = all(arg.denominator == 1
                   for op, arg, _ in program if op == "num")
    symbols = {"x": {_STRIDE: 1}}
    if "t" in ring.symbols:
        symbols["t"] = {1: 1}
    if "w" in ring.symbols:
        w = ring.symbols["w"][0]
        symbols["w"] = {0: hull_of(ring).integral_ring.descend(w)
                        if integral else w}
    stack = []
    for op, arg, pos in program:
        if op == "num":
            stack.append({0: arg.numerator if integral else arg}
                         if arg else {})
        elif op == "sym":
            if arg not in symbols:
                raise ParseError(f"symbol {arg} is not defined over "
                                 f"{ring.name}", pos)
            stack.append(dict(symbols[arg]))
        elif op == "neg":
            _neg(stack[-1])
        elif op == "^":
            stack.append(_pow(stack.pop(), arg))
        else:
            right = stack.pop()
            if op == "*":
                stack.append(_mul(stack.pop(), right))
            else:
                _add(stack[-1], _neg(right) if op == "-" else right)
    return stack.pop()


def _assemble(terms: Terms, ring: Any) -> Polynomial:
    """The polynomial over the ring with the lowered terms, built once.

    Below the hull, ValueError names the first coefficient of x that is
    not in the ring: every coefficient is tested for integrality ("does
    not lie in") before any for membership ("is not in").
    """
    hull = hull_of(ring)
    t_ring = "t" in ring.symbols
    # the domain of a scalar: the coefficients of the t-polynomials in
    # the t-rings, the hull itself in the others
    scalars = hull.base if t_ring else hull
    rows: dict[int, list] = {}      # {i: [scalar of x^i t^j for each j]}
    for key in sorted(terms):
        i, j = divmod(key, _STRIDE)
        row = rows.setdefault(i, [])
        row += [0] * (j - len(row))
        row.append(terms[key])
    if ring is not hull:
        scalars = scalars.integral_ring
        for i, row in rows.items():
            cs = [scalars.descend(c) for c in row]
            if any(c is None for c in cs):
                value = hull.element(row) if t_ring else hull.coerce(row[0])
                raise ValueError(f"coefficient {hull.format_element(value)} "
                                 f"of x^{i} does not lie in {ring.name}")
            rows[i] = cs
    coeffs = [ring.zero] * (max(rows) + 1) if rows else []
    for i, row in rows.items():
        c = Polynomial(scalars, row, "t") if t_ring else row[0]
        if ring is not hull and not ring.is_element(c):
            raise ValueError(f"coefficient {ring.format_element(c)} "
                             f"of x^{i} is not in {ring.name}")
        coeffs[i] = c
    return Polynomial(ring, coeffs, "x")


def parse_poly(text: str, ring: Any) -> Polynomial:
    """Parse an expression into an exact Polynomial over the ring, a
    domain or a descriptor string.

    Evaluation runs on integers when every literal is one; every
    coefficient must then lie in the named ring, otherwise the parse is
    rejected.
    """
    if isinstance(ring, str):
        ring = resolve_ring(ring)
    return _assemble(_lower(_parse(text, _w_bits(ring)), ring), ring)


def _parse_ring_element(text: str, ring: Any) -> Any:
    p = parse_poly(text, ring)
    if not p.is_constant():
        raise ValueError(f"expected a ring element, got a polynomial in x: {text!r}")
    return p.constant_term


# ---------------------------------------------------------------------------
# result rendering
# ---------------------------------------------------------------------------

def coeff_pair(c: Any) -> list[str]:
    """Serialize one coefficient as an exact [main, w-part] string pair."""
    cls = c.__class__
    if cls is QuadraticElement:
        first, second = c.dom.display_coords(c)
        return [_decimal(first), _decimal(second)]
    if cls is Polynomial:
        return [str(c), "0"]
    return [_decimal(c), "0"]


def poly_pairs(p: Optional[Polynomial]) -> Optional[list]:
    if p is None:
        return None
    return [coeff_pair(c) for c in p.coeffs]


class CommandResult:
    """A subcommand's answer: what the handler decided, rendered on demand.

    The handler records the command, the ring's name, the status, the
    exit code and the pair (g, h) when it found one.  ``evidence`` and
    ``text`` are functions of no arguments that render the rest of the
    answer: the JSON evidence object and the text lines.  ``payload`` and
    ``lines`` call them the first time they are read and keep the result,
    so a run builds only the output it prints, and each at most once.
    """

    def __init__(self, command: str, ring: str, status: str,
                 evidence: Callable[[], dict], text: Callable[[], list],
                 g: Optional[Polynomial] = None,
                 h: Optional[Polynomial] = None, exit_code: int = 0):
        self.command, self.ring, self.status = command, ring, status
        self.g, self.h, self.exit_code = g, h, exit_code
        self._evidence, self._text = evidence, text

    @cached_property
    def payload(self) -> dict:
        """The --json object: the same six keys for every command."""
        return {"command": self.command, "ring": self.ring,
                "status": self.status, "g": poly_pairs(self.g),
                "h": poly_pairs(self.h), "evidence": self._evidence()}

    @cached_property
    def lines(self) -> list:
        """The text form, one string per line."""
        return self._text()


def format_result(outcome: CommandResult, as_json: bool) -> str:
    """Deterministic rendering of a command's outcome: its JSON object or
    its text lines, whichever ``as_json`` asks for, built on this read."""
    if as_json:
        return json.dumps(outcome.payload, sort_keys=True)
    return "\n".join(outcome.lines)


#: A candidate's three tests, as CandidateCheck names them: the keys of
#: its JSON row and the columns of the text table, in order.
_CANDIDATE_TESTS = ("square_divides_lead", "divides_linear",
                    "inner_stays_in_ring")


def _candidates_json(ring: Any, candidates) -> list:
    return [{"u": ring.format_element(c.u),
             **{name: getattr(c, name) for name in _CANDIDATE_TESTS},
             "passed": c.passed} for c in candidates]


def _candidate_lines(ring: Any, candidates) -> list[str]:
    lines = ["candidates u (u^2 | lead, u | linear, u*c in ring):"]
    for c in candidates:
        marks = ", ".join("yes" if getattr(c, name) else "no"
                          for name in _CANDIDATE_TESTS)
        lines.append(f"  u = {ring.format_element(c.u)}: {marks}")
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_compose(ns) -> CommandResult:
    ring = resolve_ring(ns.ring)
    w_bits = _w_bits(ring)
    outer = _parse(ns.outer, w_bits)
    G = _assemble(_lower(outer, ring), ring)
    inner = _parse(ns.inner, w_bits)
    H = _assemble(_lower(inner, ring), ring)
    # G(H) is the outer expression with x standing for the inner one, so
    # it gets the parser's bounds, at the outer operator that crosses them
    _degree_bound(outer, w_bits, _degree_bound(inner, w_bits))
    f = poly_compose(G, H)
    return CommandResult(
        "compose", ring.name, "ok",
        lambda: {"g_text": str(G), "h_text": str(H),
                 "composition": poly_pairs(f), "composition_text": str(f)},
        lambda: [str(f)], G, H)


def _field_result(command: str, ring: Any, dec,
                  degrees: Optional[list]) -> CommandResult:
    """Render an answer over the hull of ``ring``, the question that
    ``decompose --over field`` and ``quartic`` over a field ask; its
    verdicts name the hull.  ``degrees`` is None for ``quartic``, which
    leaves out the evidence keys that only ``decompose`` reports.
    """
    field = hull_of(ring).name
    if dec is None:
        return CommandResult(
            command, ring.name, "indecomposable_over_field",
            lambda: ({} if degrees is None else
                     {"field": field, "inner_degrees_tried": degrees}),
            lambda: [f"indecomposable over {field}"])

    def evidence() -> dict:
        out = {"g_text": str(dec.g), "h_text": str(dec.h)}
        if degrees is not None:
            out.update(inner_degree=dec.h.degree, field=field)
        return out

    return CommandResult(
        command, ring.name, "decomposable_over_field", evidence,
        lambda: [f"decomposable over {field}:", f"  g = {dec.g}",
                 f"  h = {dec.h}"], dec.g, dec.h)


def _ring_result(command: str, ring: Any, outcome,
                 degrees: Optional[list]) -> CommandResult:
    """Render an over-ring outcome.

    A candidate search gets both verdicts and its table.  A unit lead,
    decided without one (only ``decompose`` asks, with the inner
    ``degrees`` it tries), gets the short form: a pair over the ring, or
    indecomposable over the hull and hence over the ring, a clause left
    out for a ring that is its own hull.
    """
    dec, fd = outcome.decomposition, outcome.field_evidence
    candidates = outcome.candidates
    desc, field = ring.name, hull_of(ring).name
    g, h = (dec.g, dec.h) if dec is not None else (None, None)

    def evidence() -> dict:
        if candidates is None:
            return ({"g_text": str(g), "h_text": str(h),
                     "inner_degree": h.degree} if dec is not None else
                    {"field": field, "inner_degrees_tried": degrees})
        out = {"candidates": _candidates_json(ring, candidates)}
        if fd is not None:
            out.update(
                field_g=poly_pairs(fd.g), field_h=poly_pairs(fd.h),
                field_g_text=str(fd.g), field_h_text=str(fd.h), field=field)
        if dec is not None:
            out.update(g_text=str(g), h_text=str(h))
        return out

    def text() -> list:
        if candidates is None:
            if dec is not None:
                return [f"decomposable over {desc}:", f"  g = {g}",
                        f"  h = {h}"]
            return [f"indecomposable over {field}"
                    + ("" if field == desc else f" (hence over {desc})")]
        lines = [f"over {field}: decomposable, g = {fd.g}, h = {fd.h}"
                 if fd is not None else f"over {field}: indecomposable",
                 f"over {desc}: decomposable, g = {g}, h = {h}"
                 if dec is not None else f"over {desc}: indecomposable"]
        if candidates:
            lines += _candidate_lines(ring, candidates)
        return lines

    return CommandResult(command, desc, outcome.status.value, evidence, text,
                         g, h)


def _cmd_decompose(ns) -> CommandResult:
    ring = resolve_ring(ns.ring)
    f = parse_poly(ns.poly, ring)
    N = f.degree
    if N < 2:
        raise ValueError("nothing to decompose: degree is below 2")

    is_field = ring.tier == Tier.FIELD
    over = ns.over
    if over == "ring" and is_field:
        raise ValueError(f"{ring.name} is a field; --over ring needs a "
                         f"ring descriptor")
    if ns.full and over == "ring":
        raise ValueError("--full builds chains over the fraction field; "
                         "drop --over ring")
    if ns.full and ns.inner_degree is not None:
        raise ValueError("--full tries every inner degree; "
                         "drop --inner-degree")
    if over is None:
        over = "field" if (is_field or ns.full) else "ring"
    degrees = ([ns.inner_degree] if ns.inner_degree is not None
               else proper_inner_degrees(N))

    if over == "field":
        hull = hull_of(ring)
        fh = embed_poly(f, hull)
        if ns.full:
            chain = decompose_fully(fh)
            split = len(chain) > 1
            return CommandResult(
                "decompose", ring.name,
                "decomposable_over_field" if split
                else "indecomposable_over_field",
                lambda: {"chain": [poly_pairs(c) for c in chain],
                         "chain_text": [str(c) for c in chain],
                         "field": hull.name},
                lambda: [f"f = {' o '.join(str(c) for c in chain)}"
                         f"  over {hull.name}" if split else
                         f"indecomposable over {hull.name}"])
        # not decompose_over_ring: a Q[t] lead needs a field, not a ring
        return _field_result("decompose", ring, _first_split(fh, degrees),
                             degrees)

    outcome = decompose_over_ring(f, degrees)
    return _ring_result("decompose", ring, outcome, degrees)


def _cmd_quartic(ns) -> CommandResult:
    ring = resolve_ring(ns.ring)
    f = parse_poly(ns.poly, ring)
    if ring.tier == Tier.FIELD:
        return _field_result("quartic", ring, quartic_field_decompose(f), None)
    return _ring_result("quartic", ring, quartic_ring_decide(f), None)


def _cmd_witness(ns) -> CommandResult:
    if ns.builtin is not None:
        manual = [f"--{name}" for name in ("ring", "element", "factorization")
                  if getattr(ns, name) is not None]
        if manual:
            raise ValueError(f"--builtin runs a built-in example; "
                             f"drop {', '.join(manual)}")
        ring = resolve_ring(ns.builtin)
        pair = next((p for p in builtin_examples() if p.ring is ring), None)
        if pair is None:
            names = ", ".join(p.ring.name for p in builtin_examples())
            raise ValueError(f"no builtin example over {ring.name}; "
                             f"available: {names}")
    else:
        if not (ns.ring and ns.element and ns.factorization):
            raise ValueError("witness needs --builtin, or --ring with "
                             "--element and two --factorization lists")
        if len(ns.factorization) != 2:
            raise ValueError("exactly two --factorization lists are required")
        ring = resolve_ring(ns.ring)
        element = _parse_ring_element(ns.element, ring)
        first = tuple(_parse_ring_element(s, ring)
                      for s in ns.factorization[0].split(","))
        second = tuple(_parse_ring_element(s, ring)
                       for s in ns.factorization[1].split(","))
        pair = FactorizationPair(ring, element, first, second)

    if not validate_inequivalent(pair):
        return CommandResult(
            "witness", pair.ring.name, "equivalent_factorizations",
            lambda: {"element": pair.ring.format_element(pair.element)},
            lambda: ["the two factorizations are equivalent; "
                     "no witness arises"])

    stripped, data, _ = pipeline = run_pipeline(pair)
    ring = stripped.ring

    def frame() -> tuple:
        intro = [f"ring: {ring.name},  "
                 f"element: {ring.format_element(stripped.element)}",
                 f"factorizations: ({_factors(ring, stripped.first)})"
                 f" = ({_factors(ring, stripped.second)})"]
        about_c = [f"c = a/ell = {hull_of(ring).format_element(data.c)}  "
                   f"(outside the ring),  "
                   f"d = p_s^2 = {ring.format_element(data.d)}"]
        return intro, about_c, []

    return _witness_result("witness", pipeline, frame,
                           {"field": hull_of(ring).name})


def _factors(ring: Any, factors: tuple) -> str:
    return ") * (".join(ring.format_element(x) for x in factors)


def _witness_result(command: str, pipeline: tuple, frame: Callable,
                    extra: dict) -> CommandResult:
    """Render a run_pipeline result: ingredients, the quartic, its field
    decomposition, the candidate table and one PASS/FAIL line per clause.

    ``frame`` returns the command's own text lines: those before the
    derived triple, those after it and those after the clauses.
    ``extra`` adds command-specific evidence.
    """
    stripped, data, report = pipeline
    ring = stripped.ring
    show = ring.format_element
    dec = report.field_decomposition
    outcome = report.ring_outcome

    def evidence() -> dict:
        out = {
            "element": show(stripped.element),
            "first": [show(x) for x in stripped.first],
            "second": [show(x) for x in stripped.second],
            "ell": show(data.ell),
            "a": show(data.a),
            "p_s": show(data.p_s),
            "c": hull_of(ring).format_element(data.c),
            "d": show(data.d),
            "f": poly_pairs(data.f),
            "f_text": str(data.f),
            "clauses": [{"name": c.name, "passed": c.passed,
                         "detail": c.detail} for c in report.clauses],
            **extra,
        }
        if outcome is not None:
            out["candidates"] = _candidates_json(ring, outcome.candidates)
        return out

    def text() -> list:
        intro, about_c, outro = frame()
        lines = [
            *intro,
            f"derived: ell = {show(data.ell)},  a = {show(data.a)},  "
            f"p_s = {show(data.p_s)}",
            *about_c,
            f"f = {data.f}",
        ]
        if dec is not None:
            lines.append(f"over {hull_of(ring).name}: f = g o h with "
                         f"g = {dec.g}, h = {dec.h}")
        if outcome is not None and outcome.candidates:
            lines += _candidate_lines(ring, outcome.candidates)
        lines += [f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}"
                  for c in report.clauses]
        return lines + outro

    g, h = (dec.g, dec.h) if dec is not None else (None, None)
    return CommandResult(
        command, ring.name,
        "witness_verified" if report.passed else "witness_failed",
        evidence, text, g, h, 0 if report.passed else 1)


def _cmd_check_subring(ns) -> CommandResult:
    ring = resolve_ring(ns.ring)
    hull = hull_of(ring)
    p = _assemble(_lower(_parse(ns.element, _w_bits(ring)), ring), hull)
    if not p.is_constant():
        raise ValueError("check-subring expects a coefficient-ring element, "
                         "not a polynomial in x")
    value = p.constant_term
    detail = ""
    if ring.tier == Tier.FIELD:
        member = True
        detail = f"{ring.name} is the whole ambient field"
    elif ring.descend(value) is not None:
        member = True
    elif hull.integral_ring.descend(value) is None:
        member = False
        detail = f"not integral over {hull.name}"
    else:
        member = False
        detail = ring.non_member_reason
    shown = ns.element.strip()

    def evidence() -> dict:
        out = {"element": shown, "value": hull.format_element(value),
               "ambient": hull.name}
        if detail:
            out["detail"] = detail
        return out

    return CommandResult(
        "check-subring", ring.name, "member" if member else "not_member",
        evidence,
        lambda: [f"{shown} is a member of {ring.name}" if member else
                 f"{shown} is not a member of {ring.name}"
                 + (f" ({detail})" if detail else "")])


# ---------------------------------------------------------------------------
# demos
# ---------------------------------------------------------------------------

_DEMO_SHAPES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2))


def _random_member(rng: random.Random, max_tdeg: int = 3) -> Polynomial:
    """A random element of the no-linear-term subring of Z[t]."""
    coeffs = [rng.randint(-3, 3) for _ in range(max_tdeg + 1)]
    coeffs[1] = 0
    return Polynomial(ZZ, coeffs, "t")


def _random_monic(rng: random.Random, deg: int) -> Polynomial:
    coeffs = [_random_member(rng) for _ in range(deg)] + [ZT.one]
    return Polynomial(ZT, coeffs, "x")


def run_demo_q1(trials: int = 200, seed: int = 0) -> dict:
    """Monic compositions over Z[t2,t3] never need coefficients outside it.

    Draws random monic pairs with every coefficient free of a t-linear
    term, composes them, and recovers the normalized decomposition over
    Z[t2,t3]: its root and digits run in Z[t], and building the pair
    checks that it has no t-linear terms.  Each recovered pair must be
    the expected normalization of the inputs.  Returns a summary dict.
    """
    rng = random.Random(seed)
    failures = 0
    first_failure = ""
    for trial in range(trials):
        dg, dh = _DEMO_SHAPES[rng.randrange(len(_DEMO_SHAPES))]
        g = _random_monic(rng, dg)
        h = _random_monic(rng, dh)
        # composed over Z[t], which skips the t^1 test of every product
        f = descend_poly(poly_compose(g, h), ZT23)

        dec = decompose_over_ring(f, [dh]).decomposition
        ok = dec is not None
        if ok:
            h0 = h.constant_term
            shift = Polynomial(ZT, [h0, ZT.one], "x")
            ok = (dec.h.coeffs == (h - h0).coeffs
                  and dec.g.coeffs == poly_compose(g, shift).coeffs)
        if not ok:
            failures += 1
            if not first_failure:
                first_failure = f"trial {trial}: g = {g}, h = {h}"
    return {
        "trials": trials,
        "seed": seed,
        "failures": failures,
        "detail": first_failure,
    }


def _cmd_demo_q1(ns) -> CommandResult:
    if ns.trials < 1:
        raise ValueError(f"--trials must be at least 1, not {ns.trials}")
    summary = run_demo_q1(ns.trials, ns.seed)
    ok = summary["failures"] == 0
    return CommandResult(
        "demo-q1", "Z[t2,t3]", "ok" if ok else "failed", lambda: summary,
        lambda: [f"monic pairs over Z[t2,t3][x], recovered over Q[t]: "
                 f"{summary['trials']} trials, {summary['failures']} "
                 f"failures (seed {summary['seed']})",
                 "every recovered decomposition stayed inside Z[t2,t3]"
                 if ok else f"counterexample: {summary['detail']}"],
        exit_code=0 if ok else 1)


def run_demo_q2() -> tuple:
    """The standard witness pipeline over Z[sqrt(-5)], fully verified."""
    pair = builtin_examples()[0]
    return run_pipeline(pair)


_DEMO_Q2_FINAL = ("indecomposable over Z[sqrt(-5)], "
                  "decomposable over Q(sqrt(-5))")


def _cmd_demo_q2(ns) -> CommandResult:
    stripped, data, report = pipeline = run_demo_q2()
    ring = stripped.ring

    def frame() -> tuple:
        intro = [f"two factorizations in {ring.name}: "
                 f"{ring.format_element(stripped.element)} = "
                 f"({_factors(ring, stripped.first)}) = "
                 f"({_factors(ring, stripped.second)})"]
        about_c = [f"c = a/ell = {hull_of(ring).format_element(data.c)}  "
                   f"lies outside {ring.name}",
                   f"d = p_s^2 = {ring.format_element(data.d)}"]
        return intro, about_c, [_DEMO_Q2_FINAL if report.passed
                                else "verification failed; see above"]

    return _witness_result("demo-q2", pipeline, frame,
                           {"final": _DEMO_Q2_FINAL})


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it as is."""
    parser = _Parser(
        prog="polydecomp",
        description="Exact functional decomposition of polynomials over "
                    "rings and their fraction fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, default_ring=None):
        if default_ring is not None:
            sp.add_argument("--ring", default=default_ring,
                            help=f"ring descriptor (default {default_ring}); "
                                 f"one of {_SUPPORTED}")
        sp.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON object")

    sp = sub.add_parser("compose", help="compose two polynomials exactly")
    common(sp, "Q")
    sp.add_argument("outer")
    sp.add_argument("inner")

    sp = sub.add_parser("decompose",
                        help="find g, h with f = g(h(x)), or decide none exist")
    common(sp, "Q")
    sp.add_argument("--over", choices=("ring", "field"),
                    help="decide over the ring itself or its fraction field "
                         "(default: the descriptor as given)")
    sp.add_argument("--inner-degree", type=int,
                    help="try only this inner degree")
    sp.add_argument("--full", action="store_true",
                    help="produce a complete chain of indecomposables")
    sp.add_argument("--fail-on-indecomposable", action="store_true",
                    help="exit with status 2 when the answer is indecomposable")
    sp.add_argument("poly")

    sp = sub.add_parser("quartic",
                        help="closed-form degree-4 test, plus the over-ring "
                             "decision when the ring supports it")
    common(sp, "Z")
    sp.add_argument("--fail-on-indecomposable", action="store_true")
    sp.add_argument("poly")

    sp = sub.add_parser("witness",
                        help="build and verify a quartic that decomposes over "
                             "the fraction field but not over the ring")
    common(sp)
    sp.add_argument("--ring", help=f"ring descriptor; one of {_SUPPORTED}")
    sp.add_argument("--element", help="the doubly-factored ring element")
    sp.add_argument("--factorization", action="append", metavar="LIST",
                    help="comma-separated irreducible factors; give twice")
    sp.add_argument("--builtin", nargs="?", const="Z[sqrt(-5)]",
                    help="use a built-in example (default Z[sqrt(-5)])")

    sp = sub.add_parser("check-subring",
                        help="decide membership of an element in the "
                             "descriptor's ring")
    common(sp)
    sp.add_argument("--ring", required=True,
                    help=f"ring descriptor; one of {_SUPPORTED}")
    sp.add_argument("element")

    sp = sub.add_parser("demo-q1",
                        help="monic decompositions over Z[t2,t3] never leave "
                             "the subring: randomized check")
    common(sp)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("demo-q2",
                        help="the Z[sqrt(-5)] witness: decomposable over the "
                             "field, not over the ring")
    common(sp)

    # main hands argv[1:] to parser.commands[argv[0]] when there is one
    for name, sp in sub.choices.items():
        sp.set_defaults(command=name)
    parser.commands = sub.choices
    return parser


_HANDLERS = {
    "compose": _cmd_compose,
    "decompose": _cmd_decompose,
    "quartic": _cmd_quartic,
    "witness": _cmd_witness,
    "check-subring": _cmd_check_subring,
    "demo-q1": _cmd_demo_q1,
    "demo-q2": _cmd_demo_q2,
}


def run(ns) -> CommandResult:
    """Dispatch a parsed command; raises ValueError family on bad input.
    With --fail-on-indecomposable, an indecomposable_* status exits 2."""
    result = _HANDLERS[ns.command](ns)
    if (getattr(ns, "fail_on_indecomposable", False)
            and result.status.startswith("indecomposable")):
        result.exit_code = 2
    return result


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = parser.commands.get(argv[0]) if argv else None
    try:
        ns = (parser.parse_args(argv) if sub is None
              else sub.parse_args(argv[1:]))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        result = run(ns)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = format_result(result, ns.json)
    if text:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader has gone: send what is left of stdout to devnull,
            # so the flush at interpreter exit does not raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())

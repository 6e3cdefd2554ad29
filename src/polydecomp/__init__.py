"""Exact functional decomposition of univariate polynomials.

The package answers, with exact arithmetic, when a polynomial f can be
written as a composition g(h(x)) with both factors of degree at least 2,
over a ring or over its fraction field, and constructs the factors when
they exist.  It also builds quartic witnesses that separate the two
questions: polynomials decomposable over the fraction field but not over
the ring, manufactured from a pair of genuinely different irreducible
factorizations of a single ring element.
"""

from .poly import (MINUS_INFINITY, DomainMismatchError, Polynomial, compose,
                   derivative, divrem_monic, hadic_digits)
from .domains import (CapabilityError, Tier, IntegerRing, RationalField,
                      QuadraticElement, QuadraticIntRing, QuadraticField,
                      PolynomialDomain, NoLinearTermRing, ZZ, QQ, ZT, QT,
                      ZT23, descend_element, descend_poly, embed_element,
                      embed_poly, hull_of, require_tier)
from .decomp import (CandidateCheck, Decomposition, RingDecideOutcome,
                     RingDecideStatus, decompose_fully,
                     decompose_over_field, decompose_over_ring, linear_relate,
                     monic_decompose, proper_inner_degrees,
                     quartic_field_decompose, quartic_ring_decide,
                     verify_taylor_expansion)
from .witness import (Clause, FactorizationPair, WitnessData, WitnessReport,
                      build_witness_poly, builtin_examples,
                      derive_witness_params, run_pipeline,
                      strip_common_associates, validate_inequivalent,
                      verify_witness)
from .cli import (format_result, main, parse_expression, parse_poly,
                  resolve_ring, run_demo_q1, run_demo_q2)

__version__ = "0.1.0"

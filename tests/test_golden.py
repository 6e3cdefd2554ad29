"""Golden corpus: exact stdout, stderr and exit code of the command line.

``golden_cli.json`` holds one entry per argument vector.  The test runs
``cli.main`` in-process on each and fails on any byte difference, so a
refactoring that keeps the corpus green changed no visible behaviour.

The corpus covers the README examples, every builtin witness, both demos,
every branch of the over-ring decision and the benchmark's ``cli-mixed``
argument vectors for seeds 1-3, each in text and ``--json`` form.  After
an intended change of output, re-record it from the repository root with

    PYTHONPATH=src python tests/test_golden.py --record

and review the diff of the data file.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

import pytest

from polydecomp.cli import main

DATA = pathlib.Path(__file__).with_name("golden_cli.json")

WITNESS_5 = "(-4-2*w)*x^4 + (6-6*w)*x^3 + 11*x^2 + (1+w)*x"

#: Hand-picked argument vectors; each also runs with --json.
ARGVS = (
    # README examples
    ("compose", "--ring", "Z[t]", "x^2+t*x", "x^2"),
    ("decompose", "--ring", "Q", "--full", "x^8+4*x^6+6*x^4+4*x^2+2"),
    ("quartic", "--ring", "Z", "4*x^4+4*x^3+5*x^2+2*x"),
    ("witness", "--ring", "Z[sqrt(-5)]", "--element", "6",
     "--factorization", "2,3", "--factorization", "1+w,1-w"),
    ("check-subring", "--ring", "Z[t2,t3]", "t^3+t"),
    ("decompose", "--ring", "Q", "--", "-2*x^4-x^2"),
    ("witness", "--ring", "Z", "--element", "6", "--factorization=2,3",
     "--factorization=-3,-2"),
    # builtins and demos
    ("witness", "--builtin"),
    ("witness", "--builtin", "Z[sqrt(-5)]"),
    ("witness", "--builtin", "Z[sqrt(-6)]"),
    ("witness", "--builtin", "O(-15)"),
    ("witness", "--builtin", "Z"),
    ("demo-q1", "--trials", "20", "--seed", "0"),
    ("demo-q1", "--trials", "20", "--seed", "7"),
    ("demo-q2",),
    # over the ring: monic hits
    ("decompose", "--ring", "Z", "x^4+2*x^3+x^2+1"),
    ("decompose", "--ring", "Z", "x^6+3*x^4+3*x^2+5"),
    ("decompose", "--ring", "Z[sqrt(-5)]", "x^4+2*w*x^2+1"),
    ("decompose", "--ring", "O(-15)", "x^4+w*x^2"),
    ("decompose", "--ring", "Z[t]", "x^4+2*t*x^2+t^2"),
    ("decompose", "--ring", "Q[t]", "x^4+1/2*t*x^2"),
    # over the ring: a unit leading coefficient
    ("decompose", "--ring", "Z", "--", "-x^4-2*x^2+3"),
    ("decompose", "--ring", "Z", "--", "-x^4-x+1"),
    ("decompose", "--ring", "Z[sqrt(-6)]", "--", "-x^4-w*x^2"),
    # over the ring: non-monic quartics with their candidate tables
    ("decompose", "--ring", "Z", "4*x^4+4*x^3+5*x^2+2*x"),
    ("decompose", "--ring", "Z[sqrt(-5)]", WITNESS_5),
    ("decompose", "--ring", "Z[sqrt(-5)]", "--fail-on-indecomposable",
     WITNESS_5),
    ("decompose", "--ring", "Z", "2*x^4+x+1"),
    # indecomposable over the fraction field
    ("decompose", "--ring", "Z", "x^4+x+1"),
    ("decompose", "--ring", "Z", "--fail-on-indecomposable", "x^4+x+1"),
    ("decompose", "--ring", "Z", "x^3+x"),
    ("decompose", "--ring", "Z", "x^5+x^2"),
    # the Z[t2,t3] restriction
    ("decompose", "--ring", "Z[t2,t3]", "x^4+2*t^2*x^2+t^4"),
    ("decompose", "--ring", "Z[t2,t3]", "x^6+t^3*x^2+t^2"),
    ("decompose", "--ring", "Z[t2,t3]", "x^4+t*x^2"),
    # no over-ring procedure
    ("decompose", "--ring", "Z[t2,t3]", "2*x^4+x^2"),
    ("decompose", "--ring", "Z", "2*x^6+x^3"),
    ("decompose", "--ring", "Z[t]", "t^2*x^4+x^2"),
    # --inner-degree accepted and rejected
    ("decompose", "--ring", "Z", "--inner-degree", "2", "x^6+3*x^4+3*x^2+5"),
    ("decompose", "--ring", "Z", "--inner-degree", "3", "x^6+3*x^4+3*x^2+5"),
    ("decompose", "--ring", "Z", "--inner-degree", "4", "x^6+3*x^4+3*x^2+5"),
    ("decompose", "--ring", "Z", "--inner-degree", "3",
     "4*x^4+4*x^3+5*x^2+2*x"),
    ("decompose", "--ring", "Z", "--inner-degree", "2", "x^3+1"),
    ("decompose", "--ring", "Z", "--inner-degree", "0", "x^4+x^2"),
    ("decompose", "--ring", "Q", "--inner-degree", "0", "x^4+x^2"),
    ("decompose", "--ring", "Q", "--inner-degree", "3", "x^4+x^2"),
    ("decompose", "--ring", "Q", "--inner-degree", "2", "2*x^4+x^2+7"),
    # over the field
    ("decompose", "--ring", "Q", "x^4+x^2"),
    ("decompose", "--ring", "Q", "x^3+1"),
    ("decompose", "--ring", "Q", "--full", "x^8"),
    ("decompose", "--ring", "Q", "--full", "x^5+x+1"),
    ("decompose", "--ring", "Z", "--over", "field", "2*x^4+x^2"),
    ("decompose", "--ring", "Q(sqrt(-5))", "x^4+w*x^2"),
    # quartic
    ("quartic", "--ring", "Z[sqrt(-5)]", WITNESS_5),
    ("quartic", "--ring", "Z", "x^4+x^2"),
    ("quartic", "--ring", "Z", "--fail-on-indecomposable", "x^4+x+1"),
    ("quartic", "--ring", "Q", "x^4+x^2+1"),
    ("quartic", "--ring", "Q", "x^4+x+1"),
    ("quartic", "--ring", "Z[t]", "t*x^4+x^2"),
    ("quartic", "--ring", "Z", "x^6+x"),
    # witness inputs that are rejected or equivalent
    ("witness", "--ring", "Z[sqrt(-6)]", "--element", "6",
     "--factorization", "2,3", "--factorization", "w,-w"),
    ("witness", "--ring", "Z", "--element", "6", "--factorization", "2,3",
     "--factorization", "6"),
    ("witness", "--ring", "Q", "--element", "6", "--factorization", "2,3",
     "--factorization", "3,2"),
    ("witness", "--ring", "Z[sqrt(-5)]"),
    # check-subring
    ("check-subring", "--ring", "Z[t2,t3]", "t^3+2"),
    ("check-subring", "--ring", "Z", "1/2"),
    ("check-subring", "--ring", "Q", "1/2"),
    ("check-subring", "--ring", "O(-15)", "1/2+1/2*w"),
    ("check-subring", "--ring", "Z[sqrt(-5)]", "1/2+1/2*w"),
    ("check-subring", "--ring", "Z", "x+1"),
    # bad input
    ("compose", "2x", "x"),
    ("compose", "(x", "x"),
    ("decompose", "--ring", "Z", "1/2*x^4"),
    ("decompose", "--ring", "F_9", "x^4"),
    ("decompose", "--ring", "Z[sqrt(-15)]", "x^4"),
    ("decompose", "--ring", "Z", "x"),
    ("decompose", "--ring", "Q", "--over", "ring", "x^4"),
    ("decompose", "--ring", "Z", "--full", "--over", "ring", "x^4"),
    ("decompose",),
    ("transmogrify", "x"),
)

#: Paths that the lead normalisation and the field branch of ``decompose``
#: take through the library, each also run with --json.  They come after
#: the benchmark vectors so that earlier entries keep their indices.
REROUTED_ARGVS = (
    # a unit lead other than +-1, and non-monic leads over Q[t]
    ("decompose", "--ring", "O(-3)", "w*x^4+x^2"),
    ("decompose", "--ring", "Q[t]", "t*x^4+x^2"),
    ("decompose", "--ring", "Q[t]", "--over", "field", "t*x^4+x^2"),
    ("decompose", "--ring", "Z[t]", "--over", "field", "2*x^4+x^2"),
    # w where the ring has no quadratic generator
    ("decompose", "--ring", "Z[t]", "x^4+w"),
    ("decompose", "--ring", "Q", "x^4+w"),
    # the field branch with a non-unit lead, and with lead -1
    ("decompose", "--ring", "Q(sqrt(-5))", "--inner-degree", "2",
     "w*x^4+x^2+1"),
    ("decompose", "--ring", "Z", "--over", "field", "--", "-x^4-x^2"),
)

#: Evaluation order of the expression parser and which error comes first,
#: each also run with --json.  They come after the rerouted paths so that
#: earlier entries keep their indices.
ORDER_ARGVS = (
    # the degree bound beats an undefined w to its left
    ("decompose", "--ring", "Z", "w+x^5000"),
    # a syntax error beats the degree bound
    ("decompose", "--ring", "Z", "x^5000+(x"),
    # an undefined w found while lowering beats the membership check
    ("decompose", "--ring", "Z", "1/2*x^4+w"),
    # the constant bound beats w
    ("decompose", "--ring", "Z", "w*2^1048577"),
    # the degree bound reads the shape, not the value
    ("decompose", "--ring", "Q", "(x-x)^5000+x^4"),
    # unary minus, power, product and sum on the value path
    ("decompose", "--ring", "Q", "--", "-(x+1)^2*3-x^4+2*x^2-1/2"),
    ("compose", "--ring", "Z[sqrt(-5)]", "--", "-w*x^2-(1-w)*x", "x^2-w"),
    # check-subring lowers its input directly
    ("check-subring", "--ring", "Z", "w^2"),
)

#: Unit leads over the t-rings, decided over the ring like monic ones,
#: each also run with --json.  They come last so that earlier entries
#: keep their indices.
UNIT_LEAD_ARGVS = (
    ("decompose", "--ring", "Z[t]", "--", "-x^4-2*t*x^2"),
    ("decompose", "--ring", "Q[t]", "2*x^4+x^2"),
)

#: The quartic g(h) over Z[sqrt(-5)] with g = (2+w) x^2 + (1-2w) x + 3 and
#: h = (100+7w) x^2 + (-4+w) x: its lead (2+w)(100+7w)^2 has norm
#: 944640225, past the divisor bound of 10^6 that the search had while it
#: ran on trial division.
LARGE_LEAD_QUARTIC = ("(12510+12555*w)*x^4+(-2460-582*w)*x^3"
                      "+(232-198*w)*x^2+(6+9*w)*x+3")

#: Leads past the old divisor bound, each also run with --json.  They come
#: last so that earlier entries keep their indices.
LARGE_LEAD_ARGVS = (
    ("quartic", "--ring", "Z[sqrt(-5)]", LARGE_LEAD_QUARTIC),
)

#: Z[t2,t3] inputs that fail the Z[t] integrality test before the t^1
#: test, and a Q[t] member that is not integral, each also run with
#: --json.  They come last so that earlier entries keep their indices.
SUBRING_ARGVS = (
    ("decompose", "--ring", "Z[t2,t3]", "t*x+1/2*x^2"),
    ("check-subring", "--ring", "Z[t2,t3]", "1/2*t"),
    ("check-subring", "--ring", "Q[t]", "1/2*t"),
)

#: A full chain whose lead, 2/3, is not an integer, each also run with
#: --json: the lead is divided out once and g's constant 1/5 stays g(0).
#: They come last so that earlier entries keep their indices.
RATIONAL_LEAD_ARGVS = (
    ("decompose", "--full", "--ring", "Q",
     "2/3*x^8+8*x^7+112/3*x^6+84*x^5+275/3*x^4+46*x^3+16*x^2+3*x+1/5"),
)

#: Quartics over the fields with denominators in their coefficients, each
#: also run with --json: the closed form decides them on an integral lift
#: by s > 1.  The first decomposes with h = x^2 + 2/5*x, the second is the
#: same input with 1/3*x^2 and does not.  They come last so that earlier
#: entries keep their indices.
FIELD_QUARTIC_ARGVS = (
    ("quartic", "--ring", "Q",
     "1/2*x^4+2/5*x^3+(2/25+1/3)*x^2+2/15*x+1/7"),
    ("quartic", "--ring", "Q", "1/2*x^4+2/5*x^3+1/3*x^2+2/15*x+1/7"),
    ("quartic", "--ring", "Q(sqrt(-5))",
     "1/3*x^4 + (2/9+2/9*w)*x^3 + (-4/27+31/54*w)*x^2 + (-5/6+1/6*w)*x"
     " + 1/7"),
)


#: The field answers of ``quartic`` and ``decompose --over field``, each
#: also run with --json: the degree error of the quartic closed form, a
#: field quartic on the half basis of Q(sqrt(-15)), an indecomposable
#: over Q with no over-ring clause, and the FIELD tier error that the
#: hull of Z[t] raises.  They come last so that earlier entries keep
#: their indices.
FIELD_ANSWER_ARGVS = (
    ("quartic", "--ring", "Q", "x^6+x"),
    ("quartic", "--ring", "Q(sqrt(-15))", "x^4+x+1"),
    ("decompose", "--ring", "Z", "--over", "field", "x^4+x+1"),
    ("decompose", "--ring", "Z[t]", "--over", "field", "t*x^4+x^2"),
)

#: An indecomposable over Q[t], which is its own hull: the verdict names
#: it once, with no "(hence over Q[t])".  Also run with --json, and last
#: so that earlier entries keep their indices.
OWN_HULL_ARGVS = (
    ("decompose", "--ring", "Q[t]", "x^4+x+1"),
)

#: Non-monic quartics over the orders with units other than +-1, O(-3)
#: (six units) and Z[sqrt(-1)] (four): the candidate scan runs over
#: divisor classes picked by the associate representative.  Each is also
#: run with --json, last so that earlier entries keep their indices.
UNIT_GROUP_ARGVS = (
    ("quartic", "--ring", "O(-3)", "3*x^4+x^2"),
    ("quartic", "--ring", "Z[sqrt(-1)]", "2*x^4+4*x^3+3*x^2+x"),
)


def _with_json(argv: tuple) -> tuple:
    return argv[:1] + ("--json",) + argv[1:]


def corpus_argvs() -> list:
    """The hand-picked vectors, the benchmark's cli-mixed ones, the
    rerouted paths, the evaluation-order vectors, the unit leads, the
    leads past the old divisor bound, the membership checks of the
    t-rings, a rational lead, the field quartics with denominators, the
    field answers, a ring that is its own hull, then quartics over the
    orders with more than two units."""
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "bench"))
    import workloads

    out = []
    for argv in ARGVS:
        out += [argv, _with_json(argv)]
    for seed in (1, 2, 3):
        out += [tuple(case.data) for case in workloads.cli_cases(seed)]
    for argv in (REROUTED_ARGVS + ORDER_ARGVS + UNIT_LEAD_ARGVS
                 + LARGE_LEAD_ARGVS + SUBRING_ARGVS + RATIONAL_LEAD_ARGVS
                 + FIELD_QUARTIC_ARGVS + FIELD_ANSWER_ARGVS
                 + OWN_HULL_ARGVS + UNIT_GROUP_ARGVS):
        out += [argv, _with_json(argv)]
    return list(dict.fromkeys(out))


def run_argv(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "stdout": out.getvalue(),
            "stderr": err.getvalue(), "code": code}


CORPUS = json.loads(DATA.read_text()) if DATA.exists() else []


@pytest.mark.parametrize("entry", CORPUS,
                         ids=[f"{i:03d}-{e['argv'][0]}"
                              for i, e in enumerate(CORPUS)])
def test_cli_output_matches_corpus(entry):
    assert run_argv(entry["argv"]) == entry


def test_corpus_is_present():
    assert len(CORPUS) > 100


def test_corpus_matches_the_argument_vectors():
    """An argument vector added without re-recording would never run."""
    assert [e["argv"] for e in CORPUS] == [list(a) for a in corpus_argvs()]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    entries = [run_argv(argv) for argv in corpus_argvs()]
    DATA.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"recorded {len(entries)} entries in {DATA}")

"""Tests for the benchmark's input generators, oracles and layer tables.

Run with the package on the path, from the repository root:
    PYTHONPATH=src python -m pytest -q bench
"""

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import layers
import workloads as w

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _shape(workload, cases):
    if workload == "field-highdeg":
        return Counter((c.kind, c.data[0], len(c.data[1])) for c in cases)
    if workload == "ring-quartic":
        return Counter((c.kind, c.data[0]) for c in cases)
    return Counter((c.data[0], "--json" in c.data) for c in cases)


@pytest.mark.parametrize("workload", w.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    gen = w.GENERATORS[workload]
    assert gen(7) == gen(7)
    assert w.inputs_digest(gen(7)) == w.inputs_digest(gen(7))
    assert w.inputs_digest(gen(7)) != w.inputs_digest(gen(8))
    # only coefficients, primes and order change with the seed
    assert _shape(workload, gen(7)) == _shape(workload, gen(8))


def test_recorded_digests_still_match():
    record = json.loads((BENCH / "record.json").read_text())
    for workload, entry in record["input_digests"].items():
        cases = w.GENERATORS[workload](entry["seed"])
        assert w.inputs_digest(cases) == entry["digest"], workload


def test_every_subcommand_in_text_and_json():
    kinds = _shape("cli-mixed", w.cli_cases(3))
    for cmd in ("compose", "decompose", "quartic", "witness", "check-subring",
                "demo-q1", "demo-q2"):
        assert kinds[(cmd, False)] and kinds[(cmd, True)], cmd


def test_ring_leads_stay_inside_the_divisor_bound():
    for case in w.ring_cases(5):
        d = case.data[0]
        lead = case.expect[-1] if case.kind == "witness" else case.data[1][-1]
        assert 10 ** 2 <= w.lead_norm(d, lead) <= 10 ** 6, case


def test_eisenstein_certificate_rejects_each_broken_clause():
    rng = random.Random(0)
    a = w.eisenstein_derivative(rng, 12, 7)
    w.check_eisenstein_derivative(a, 7)
    for broken in ([*a[:-1], 7],                 # p divides the lead
                   [a[0], 49, *a[2:]],           # p^2 divides f'(0)
                   [a[0], a[1], a[2] + 1, *a[3:]]):  # a lower coefficient
        with pytest.raises(ValueError):
            w.check_eisenstein_derivative(broken, 7)


def test_field_oracle():
    g, h = [1, 2, 0, 1], [0, -1, 3]
    f = w.pcompose(g, h, w.RAT)
    comp = w.Case("composition", ("field", tuple(f)), (2, 3))
    assert w.check_field(comp, [g, h]) == ""
    assert w.check_field(comp, [g, [0, 1, 3]]) != ""
    assert w.check_field(comp, None) != ""
    full = w.Case("composition", ("full", tuple(f)), (2, 3))
    assert w.check_field(full, [g, h]) == ""
    assert w.check_field(full, [f]) != ""          # Ritt: wrong degrees
    a = w.eisenstein_derivative(random.Random(1), 6, 5)
    for decider, good, bad in (("field", None, [g, h]), ("full", [a], [g, h])):
        case = w.Case("eisenstein", (decider, tuple(a)), (5,))
        assert w.check_field(case, good) == ""
        assert w.check_field(case, bad) != ""


def test_ring_oracle():
    rng = random.Random(2)
    for d in w.RING_DS:
        g, h, f = w.ring_composition(rng, d, 3.0)
        case = w.Case("composition", (d, tuple(f)), ())
        assert w.check_ring(case, ("decomposable_over_ring", g, h)) == ""
        off = [h[0], (h[1][0] + 1, h[1][1]), h[2]]
        assert w.check_ring(case, ("decomposable_over_ring", g, off)) != ""
        assert w.check_ring(case, ("indecomposable_over_ring",)) != ""
    f = w.witness_quartic(-5, 2, 3, (1, 1))
    case = w.Case("witness", (-5, 2, 3, (1, 1)), tuple(f))
    assert w.check_ring(case, ("witness", True, "indecomposable_over_ring",
                               f)) == ""
    assert w.check_ring(case, ("witness", False, "indecomposable_over_ring",
                               f)) != ""
    assert w.check_ring(case, ("witness", True, "decomposable_over_ring",
                               f)) != ""


@pytest.mark.parametrize("d", w.WITNESS_DS)
def test_witness_triples_are_two_factorizations(d):
    norms = {w.quad_norm(d, x) for x in w._elements_below(d, 1000)}
    for p, q, alpha in w.witness_triples(d, 1000):
        assert p * q == w.quad_norm(d, alpha) <= 1000
        assert w._is_prime(p) and w._is_prime(q)
        assert p not in norms and q not in norms and alpha[1] != 0


def test_witness_formula_matches_the_builtin_examples():
    witness = pytest.importorskip("polydecomp.witness")
    for pair in witness.builtin_examples():
        stripped, data, _ = witness.run_pipeline(pair)
        p, q = (x.a for x in stripped.first)
        alpha = (stripped.second[0].a, stripped.second[0].b)
        expected = w.witness_quartic(pair.ring.d, p, q, alpha)
        assert [(c.a, c.b) for c in data.f.coeffs] == expected


def test_rendered_inputs_parse_back_exactly():
    cli = pytest.importorskip("polydecomp.cli")
    rng = random.Random(4)
    f = w.pcompose(w._rat_poly(rng, 3), w._rat_poly(rng, 2), w.RAT)
    assert list(cli.parse_poly(w.render_poly(f, w.render_rat, 0),
                               "Q").coeffs) == f
    _, _, q = w.ring_composition(rng, -15, 3.0)
    parsed = cli.parse_poly(w.render_poly(q, w.render_quad, (0, 0)), "O(-15)")
    assert [(c.a, c.b) for c in parsed.coeffs] == q
    t = w.pcompose([(1, 0, 2), (), (1,)], [(), (0, 0, -1), (1,)], w.TPOLY)
    parsed = cli.parse_poly(w.render_poly(t, w.render_tpoly, ()), "Z[t2,t3]")
    assert [c.coeffs for c in parsed.coeffs] == t


def test_cli_oracle():
    case = w.Case("quartic", ("quartic", "--json"),
                  ("indecomposable_over_ring", 0, "over Z: indecomposable"))
    good = json.dumps({"status": "indecomposable_over_ring"})
    assert w.check_cli(case, (0, good)) == ""
    assert w.check_cli(case, (1, good)) != ""
    assert w.check_cli(case, (0, good.replace("in", "", 1))) != ""
    text = w.Case("quartic", ("quartic",),
                  ("indecomposable_over_ring", 0, "over Z: indecomposable"))
    assert w.check_cli(text, (0, "over Q: indecomposable\n"
                                 "over Z: indecomposable\n")) == ""
    assert w.check_cli(text, (0, "over Z: decomposable\n")) != ""
    assert w.check_cli(text, (0, "over Z: indecomposable\nFAIL x: y\n")) != ""


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER_METRICS)
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)
    for table in (layers.MUST_FIRE, layers.MUST_NOT_FIRE):
        for names in table.values():
            assert set(names) <= set(layers.LAYER_NAMES)


def test_recorder_reaches_imported_names_and_restores_them():
    pkg = pytest.importorskip("polydecomp")
    from polydecomp import cli, decomp, domains, poly, witness
    mods = {"polydecomp": pkg, "poly": poly, "domains": domains,
            "decomp": decomp, "witness": witness, "cli": cli}
    before = (poly.compose, decomp.compose, cli.poly_compose,
              poly.Polynomial.__mul__, decomp.Decomposition.__init__)
    rec = layers.Recorder(mods)
    rec.install()
    try:
        assert rec.absent == []
        assert cli.poly_compose is not before[2]
        assert decomp.compose is cli.poly_compose is poly.compose
        x = poly.Polynomial.identity(domains.QQ)
        assert cli.main(["compose", "x^2+x", "x^2", "--json"]) == 0
        decomp.monic_decompose(poly.compose(x * x + x, x * x), 2)
    finally:
        rec.uninstall()
    assert (poly.compose, decomp.compose, cli.poly_compose,
            poly.Polynomial.__mul__, decomp.Decomposition.__init__) == before
    metrics, _ = rec.summarize(1)
    assert metrics["cli.main.calls"] == 1
    assert metrics["decomp.monic_decompose.hits"] == 1
    assert metrics["poly.compose.calls"] >= 2
    assert metrics["poly.mul.calls"] > 0
    assert all(metrics[f"{n}.self_s"] >= 0 for n in layers.LAYER_NAMES)


def _run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_traced_cli_run_checks_answers_and_layers(tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = _run(["--workload", "cli-mixed", "--seed", "2", "--seconds", "0",
                 "--trace", "1", "--spans", str(spans)], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = {m[0] for m in layers.PER_LAYER_METRICS}
    assert set(result["metrics"]) == names
    assert result["metrics"]["trace.layers_missing"]["value"] == 0
    first = json.loads(spans.read_text().splitlines()[0])
    assert {"layer", "start_ns", "end_ns", "parent", "decision"} <= set(first)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "field-highdeg", "--seconds", "1"], tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

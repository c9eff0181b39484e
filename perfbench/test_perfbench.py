"""Tests of the benchmark's own helpers.

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import statistics

import numpy as np
import pytest

import benchlib as bl

bl.load_program()

import exemplar_runs as er  # noqa: E402
import serve_cohort as sc  # noqa: E402


@pytest.fixture(scope="module")
def infos():
    from repro.runestone import build_distributed_module, build_raspberry_pi_module

    return [sc.ModuleInfo(build_raspberry_pi_module()),
            sc.ModuleInfo(build_distributed_module())]


# ---------------------------------------------------------------------------
# A seed yields the same operations
# ---------------------------------------------------------------------------

def test_serve_round_plan_repeats_for_a_seed(infos):
    assert sc.round_plan(7, 3, infos) == sc.round_plan(7, 3, infos)
    assert sc.round_plan(7, 3, infos) != sc.round_plan(8, 3, infos)


def test_serve_journal_repeats_for_a_seed(infos, tmp_path):
    first, second = sc.Expected(), sc.Expected()
    sc.write_earlier_session(5, infos, tmp_path / "a", first)
    sc.write_earlier_session(5, infos, tmp_path / "b", second)
    assert first.attempts == second.attempts
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_exemplar_inputs_and_order_repeat_for_a_seed():
    a, b = er.Inputs(3), er.Inputs(3)
    assert (a.ligands, a.fire_seed, a.hot_end, a.values) == (
        b.ligands, b.fire_seed, b.hot_end, b.values)
    assert er.Inputs(4).values != a.values
    orders = []
    for _ in range(2):
        order = list(bl.EXEMPLAR_RUNS)
        bl.rng_for("exemplars", 3, "order", 0).shuffle(order)
        orders.append(order)
    assert orders[0] == orders[1]


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------

def test_percentile_is_exact_on_known_samples():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert bl.percentile(samples, 0) == 1.0
    assert bl.percentile(samples, 25) == 1.5
    assert bl.percentile(samples, 50) == 3.0
    assert bl.percentile(samples, 75) == 4.5
    assert bl.percentile(samples, 100) == 5.0
    assert bl.percentile(range(1, 101), 90) == pytest.approx(90.9)
    assert bl.percentile([1.0, 2.0, 3.0, 4.0], 90) == 4.0  # rank 4.5, clamped
    assert bl.median([10.0, 20.0]) == 15.0
    assert bl.median([7.0]) == 7.0
    with pytest.raises(ValueError):
        bl.percentile([], 50)


def test_percentile_quartiles_are_those_of_statistics_quantiles():
    rng = bl.rng_for("quartiles")
    for n in (3, 4, 5, 10, 11, 37):
        samples = [rng.random() for _ in range(n)]
        q1, _, q3 = statistics.quantiles(samples, n=4)
        assert bl.percentile(samples, 25) == pytest.approx(q1, rel=1e-12)
        assert bl.percentile(samples, 75) == pytest.approx(q3, rel=1e-12)
        assert bl.median(samples) == pytest.approx(statistics.median(samples), rel=1e-12)


def test_sitting_percentile_is_exact_on_known_samples():
    # Medians 2 and 20: a sitting takes 22.  The pooled ratios to the
    # medians are 0.5 0.5 1 1 1.5 1.5.
    times = {"a": [1.0, 2.0, 3.0], "b": [30.0, 10.0, 20.0]}
    assert bl.sitting_percentile(times, 25) == pytest.approx(22.0 * 0.5)
    assert bl.sitting_percentile(times, 50) == pytest.approx(22.0)
    assert bl.sitting_percentile(times, 90) == pytest.approx(22.0 * 1.5)
    # One operation alone: its own percentiles.
    samples = [4.0, 1.0, 3.0, 2.0, 5.0]
    for q in (25, 50, 90):
        assert bl.sitting_percentile({"x": samples}, q) == pytest.approx(
            bl.percentile(samples, q))


# ---------------------------------------------------------------------------
# Each output check rejects a corrupted output
# ---------------------------------------------------------------------------

def test_sorting_check_rejects_a_swapped_pair():
    values = [0.3, 0.1, 0.2, 0.9]
    expected = sorted(values)
    assert er.check_sorting(list(expected), expected) is None
    swapped = list(expected)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert er.check_sorting(swapped, expected) is not None


def test_heat_check_rejects_a_perturbed_cell():
    import repro.exemplars as ex

    reference = er.heat_reference(64, 30, 0.25, 80.0)
    out = ex.heat_seq(64, 30, 0.25, 80.0)
    assert er.check_heat(out, reference, 80.0) is None
    perturbed = out.copy()
    perturbed[20] += 1e-3
    assert er.check_heat(perturbed, reference, 80.0) is not None
    moved_end = out.copy()
    moved_end[-1] = 1e-12
    assert er.check_heat(moved_end, reference, 80.0) is not None
    too_hot = out.copy()
    too_hot[1] = 80.5
    assert er.check_heat(too_hot, reference, 80.0) is not None


def test_integration_check_rejects_values_outside_the_bound():
    import repro.exemplars as ex

    n = 1000
    seq = ex.integrate_seq(ex.quarter_circle, 0.0, 2.0, n)
    assert er.check_integration(seq, seq, n) is None
    assert er.check_integration(math.pi + 1e-6, math.pi + 1e-6, n) is not None
    assert er.check_integration(seq - 1e-6, seq, n) is not None


def test_drugdesign_and_forestfire_checks_reject_changed_results():
    import repro.exemplars as ex

    ligands = ["abc", "hat", "zzz"]
    seq = ex.run_seq(ligands)
    assert er.check_drugdesign(seq, ligands, seq.scores) is None
    bad = ex.DrugDesignResult(seq.protein, ligands, [seq.scores[0] + 1, *seq.scores[1:]], "omp")
    assert er.check_drugdesign(bad, ligands, seq.scores) is not None

    curve = ex.fire_curve_seq(probs=(0.3, 0.7), trials=3, size=9, seed=1)
    rows = er.fire_rows(curve)
    assert er.check_forestfire(curve, rows) is None
    first = curve.points[0]
    changed = ex.FireCurve(curve.size, [ex.FirePoint(first.prob, first.avg_burned + 0.01,
                                                     first.avg_iterations, first.trials),
                                        *curve.points[1:]], "mpi")
    assert er.check_forestfire(changed, rows) is not None


def _submit_body(correct: bool) -> bytes:
    return json.dumps({"activity_id": "q1", "correct": correct, "score": float(correct),
                       "feedback": "ok"}).encode()


def test_submit_check_rejects_a_flipped_correct_flag():
    expect = {"status": 200, "activity_id": "q1", "correct": True}
    assert sc.check_response("submit", expect, 200, _submit_body(True)) is None
    assert sc.check_response("submit", expect, 200, _submit_body(False)) is not None
    assert sc.check_response("submit", expect, 500, _submit_body(True)) is not None


def test_gradebook_check_rejects_a_missing_learner():
    doc = {"learners": 2, "records": {"ada": {"attempts": 2}, "bob": {"attempts": 0}}}
    assert sc.check_gradebook(doc, {"ada": 2, "bob": 0}) is None
    assert sc.check_gradebook(doc, {"ada": 2, "bob": 0, "cy": 4}) is not None
    assert sc.check_gradebook(doc, {"ada": 3, "bob": 0}) is not None


def test_reread_check_rejects_a_stale_version():
    body = json.dumps({"module": "m", "title": "t", "version": 2, "format": "html",
                       "section": None, "activities": [], "rendered": "<p>"}).encode()
    expect = {"status": 200, "module": "m", "format": "html", "version": 3}
    assert sc.check_response("reread", expect, 200, body) is not None
    assert sc.check_response("reread", {**expect, "version": 2}, 200, body) is None


def test_journal_check_counts_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"op":"enroll","learner":"a"}\n{"op":"enroll","learner":"b"}\n')
    assert sc.check_journal_lines(path, 2) is None
    assert sc.check_journal_lines(path, 3) is not None


def test_answer_pairs_grade_as_the_benchmark_expects():
    from repro.runestone import build_distributed_module, build_raspberry_pi_module

    for module in (build_raspberry_pi_module(), build_distributed_module()):
        info = sc.ModuleInfo(module)
        assert info.questions
        for aid, right, wrong in info.questions:
            question = module.find_question(aid)
            assert question.grade(right).correct is True
            assert question.grade(wrong).correct is False


# ---------------------------------------------------------------------------
# BENCHMARK.json describes what the benchmark prints
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((bl.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bl.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bl.PER_LAYER
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in spec["end_to_end"])
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert spec["paths"] == ["perfbench"]


def test_result_line_holds_every_named_metric():
    result = bl.RunResult()
    result.attempted = 3
    result.values = {"setup_s": 0.5, "ops_per_s": 12.0, "p50_ms": 1.0, "p90_ms": 2.0,
                     "peak_rss_mb": np.float64(10.0).item()}
    doc = json.loads(bl.result_line(result, bl.END_TO_END))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == bl.END_TO_END

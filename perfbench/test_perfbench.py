"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import contextlib
import io
import json
import random
import time

import pytest

import reference
import run
import speed
from workloads import WORKLOADS, Words, perturb, random_word, variant

queue_monoid = run.load_library()

_SWAPS = {"yes": "no", "no": "yes", "in": "out", "out": "in",
          "equivalent": "inequivalent", "inequivalent": "equivalent",
          "conjugate": "not-conjugate", "not-conjugate": "conjugate", "NONE": "e"}


def corrupt(out: str) -> str:
    """A wrong answer of the same shape: the other verdict, a longer word, or
    an automaton with every state's accepting flag flipped."""
    text = out.strip()
    if text in _SWAPS:
        return _SWAPS[text] + "\n"
    if text.startswith("alphabet:"):
        lines = []
        for line in text.splitlines():
            if line.startswith("state "):
                line = line.replace(" accepting", "") if "accepting" in line else line + " accepting"
            lines.append(line)
        return "\n".join(lines) + "\n"
    return text + "a\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_passes_real_answers_and_fails_corrupted_ones(name, tmp_path):
    workload = WORKLOADS[name](7, str(tmp_path))
    workload.setup()
    block = workload.block(0)
    started = time.perf_counter()
    clean, _, _ = run.plain_run(workload, queue_monoid.cli, block, 0.0, 1, started)
    assert clean.failures == []
    bad, _, _ = run.plain_run(workload, queue_monoid.cli, block, 0.0, 1, started, corrupt=corrupt)
    assert len(bad.failures) == bad.attempted == len(block)


def test_checker_fails_automata_that_are_not_minimal(tmp_path):
    """An unreachable extra state keeps the language but not minimality."""
    workload = WORKLOADS["simple_sets"](7, str(tmp_path))
    workload.setup()
    for query in workload.block(0):
        if query.kind == "simple_compile":
            _, rc, out, _ = run.call(queue_monoid.cli, query.argv)
            assert reference.check(query, rc, out) is None
            assert reference.check(query, rc, out + "state unreachable\n") is not None


def test_smoke_prints_every_metric_with_its_unit():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(["--workload", "simple_sets", "--smoke"]) == 0
    lines = out.getvalue().strip().splitlines()
    info = json.loads(lines[-2])["run_info"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = run.load_spec()
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert {"commit", "python", "nproc", "seed", "properties"} <= set(info)


def test_every_workload_is_in_benchmark_json():
    assert [w["name"] for w in run.load_spec()["workloads"]] == list(WORKLOADS)


def test_latencies_are_scaled_by_the_probes_around_them():
    probes = speed.Speed()
    probes.sent, probes.probes = [0, 2, 3], [speed.REFERENCE_S, 3 * speed.REFERENCE_S,
                                             2 * speed.REFERENCE_S]
    assert probes.scaled([1.0, 4.0, 5.0]) == [0.5, 2.0, 2.0]


def test_reference_normal_form_agrees_with_rewriting():
    rng = random.Random(3)
    for _ in range(3000):
        letters = rng.choice(("ab", "abc"))
        w = random_word(rng, rng.randint(0, 12), letters)
        assert reference.normal_form(w) == queue_monoid.rewrite_normalize(w).word()
        for k in range(4):
            nf = queue_monoid.rewrite_normalize(w)
            assert reference.in_omega(w, k) == queue_monoid.in_omega(nf, k)


def test_generated_pairs_are_what_they_claim():
    rng = random.Random(4)
    for _ in range(200):
        w = random_word(rng, rng.randint(1, 40), "abc")
        assert reference.equivalent(w, variant(rng, w, 10))
        assert not reference.equivalent(w, perturb(rng, w, "abc"))
    block = Words(5, "").block(0)
    for q in block:
        if q.kind in ("eq", "eq_oracle"):
            u, v = q.argv[-2:]
            assert reference.equivalent(u, v) == q.data["expected"]

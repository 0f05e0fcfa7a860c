"""Self-tests of the canonical benchmark (not collected by tier-1).

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
sys.path.insert(0, str(SUITE_DIR))
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import compare  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Probe, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` run of all six workloads, both passes."""
    out = tmp_path_factory.mktemp("smoke") / "smoke.json"
    shm_before = set(os.listdir("/dev/shm"))
    done = subprocess.run(
        [sys.executable, str(SUITE_DIR / "run.py"), "--workload", "all",
         "--smoke", "--trace", "--out", str(out)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return {
        "document": json.loads(out.read_text()),
        "stdout": done.stdout,
        "out": out,
        "shm_leaked": set(os.listdir("/dev/shm")) - shm_before,
    }


# ----------------------------------------------------------------------
# The declaration
# ----------------------------------------------------------------------
def test_benchmark_json_declares_the_catalog(benchmark_json):
    assert set(benchmark_json) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert benchmark_json["paths"] == ["benchmarks/suite"]
    assert benchmark_json["command"][-1] == "benchmarks/suite/run.py"
    assert 1 <= benchmark_json["run_seconds"] <= 60

    declared = {w["name"]: w["why"] for w in benchmark_json["workloads"]}
    assert list(declared) == list(catalog.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(catalog.WORKLOAD_NAMES)
    for name, why in declared.items():
        assert why == workloads.WORKLOADS[name].why
        assert len(why) <= 200 and "\n" not in why

    end_to_end = {m["name"]: m for m in benchmark_json["end_to_end"]}
    assert tuple(end_to_end) == catalog.DRIVER_END_TO_END
    assert end_to_end["setup_s"]["unit"] == "s"
    for name, metric in end_to_end.items():
        assert metric["unit"] == catalog.END_TO_END_BY_NAME[name].unit
        assert metric["better"] == "lower"
        assert 0 < metric["bound"] <= 0.25
    assert end_to_end["setup_s"]["bound"] == max(
        m["bound"] for m in end_to_end.values()
    )

    per_layer = {m["name"]: m for m in benchmark_json["per_layer"]}
    assert list(per_layer) == [m.name for m in catalog.PER_LAYER]
    assert len(per_layer) <= 128
    for metric in catalog.PER_LAYER:
        assert per_layer[metric.name]["unit"] == metric.unit
        assert per_layer[metric.name]["better"] == metric.better
        assert set(per_layer[metric.name]) == {"name", "unit", "better"}

    names = list(declared) + list(end_to_end) + list(per_layer)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_every_workload_reports_the_driver_metrics():
    for cls in workloads.WORKLOADS.values():
        assert set(catalog.DRIVER_END_TO_END) <= set(cls.reports)
        assert set(cls.reports) <= set(catalog.END_TO_END_BY_NAME)
        assert set(cls.per10) == set(cls.phases)


# ----------------------------------------------------------------------
# A whole (small) run
# ----------------------------------------------------------------------
def test_smoke_document_schema(smoke, benchmark_json):
    document = smoke["document"]
    assert document["schema"] == run.SCHEMA
    assert document["smoke"] is True
    assert list(document)[-1] == "claim" and document["claim"] is None
    assert document["host"]["host_cpus"] == os.cpu_count()
    assert {"python", "numpy", "scipy"} <= set(document["host"])
    assert document["code"]["src_lines"] > 0
    assert document["code"]["tests_lines"] > 0
    assert set(document["env"]["unset"]) == set(run.PINNED_UNSET)

    assert list(document["workloads"]) == [
        w["name"] for w in benchmark_json["workloads"]
    ]
    layer_names = [m["name"] for m in benchmark_json["per_layer"]]
    for name, entry in document["workloads"].items():
        cls = workloads.WORKLOADS[name]
        assert entry["failed"] == 0, entry["failures"]
        assert entry["attempted"] >= 1
        assert list(entry["end_to_end"]) == list(cls.reports)
        assert entry["end_to_end"]["failed_share"]["value"] == 0
        assert set(entry["samples"]) == set(cls.phases)
        assert all(n == measure.SMOKE_SAMPLES
                   for n in entry["samples"].values())
        assert {"nnz", "K", "p"} <= set(entry["sizes"]) or (
            {"matrices", "requests", "K", "p"} <= set(entry["sizes"])
        )
        for metric, value in entry["end_to_end"].items():
            assert NAME.fullmatch(metric)
            assert value["unit"] == catalog.END_TO_END_BY_NAME[metric].unit
            if metric != "failed_share":
                assert value["value"] > 0
        assert list(entry["per_layer"]) == layer_names
        for metric, value in entry["per_layer"].items():
            assert value["unit"] == catalog.PER_LAYER_BY_NAME[metric].unit
            assert value["value"] is not None, value
        assert entry["trace"]["missing_probes"] == {}
        trace = smoke["out"].with_name(entry["trace"]["file"])
        assert trace.stat().st_size > 0


def test_smoke_prints_every_metric_and_ends_with_the_summary(smoke):
    stdout = smoke["stdout"]
    for entry in smoke["document"]["workloads"].values():
        for metric in list(entry["end_to_end"]) + list(entry["per_layer"]):
            assert re.search(rf"^\s+{re.escape(metric)}\s", stdout, re.M)
    summary = json.loads(stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert list(summary)[-1] == "claim" and summary["claim"] is None


def test_smoke_designed_contrasts(smoke):
    """The stress / bypass design, visible even at smoke size."""
    layers = {
        name: {k: v["value"] for k, v in entry["per_layer"].items()}
        for name, entry in smoke["document"]["workloads"].items()
    }
    assert layers["kmer_async"]["core.stripes_async"] > 0
    assert layers["kmer_async"]["cluster.rget_calls"] > 0
    assert layers["queen_sync"]["core.stripes_async"] == 0
    assert layers["queen_sync"]["cluster.rget_calls"] == 0
    assert layers["queen_sync"]["sparse.coalesce_calls"] == 0
    assert layers["serve_chaos"]["cluster.rget_failures"] > 0
    assert layers["serve_chaos"]["serve.availability"] == 1.0
    assert layers["web_sweep"]["tune.model_max_rel_err"] <= 1e-9
    assert layers["web_sweep"]["dist.grid_layers"] > 0
    assert layers["web_shm"]["transport.shm.counter_mismatches"] == 0
    assert layers["web_shm"]["transport.shm.makespan_s.TwoFace"] > 0
    for name, values in layers.items():
        assert values["cluster.arena_grows"] == 0, name
        if name != "serve_chaos":
            assert values["cluster.rget_failures"] == 0, name


def test_driver_record_has_exactly_the_declared_metrics(smoke,
                                                        benchmark_json):
    entry = smoke["document"]["workloads"]["kmer_async"]
    record = run.driver_record(entry, ["e2e"])
    assert list(record) == ["correct", "attempted", "failed", "metrics"]
    assert list(record["metrics"]) == [
        m["name"] for m in benchmark_json["end_to_end"]
    ]
    assert all(v["value"] > 0 for v in record["metrics"].values())
    record = run.driver_record(entry, ["layers"])
    assert list(record["metrics"]) == [
        m["name"] for m in benchmark_json["per_layer"]
    ]


def test_runner_leaves_nothing_behind(smoke):
    assert not run.WORK.exists()
    assert not smoke["shm_leaked"]
    for tracked in ("src", "tests"):
        assert not list((ROOT / tracked).rglob("*.work"))


def test_missing_program_exits_nonzero_without_a_record(tmp_path):
    """In a tree that holds only the benchmark, the runner must fail."""
    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir(parents=True)
    for path in SUITE_DIR.glob("*.py"):
        (suite / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text("{}")
    done = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         "kmer_async", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
class _CorruptingKmer(workloads.KmerAsync):
    """Flips one element of every cold ``C``."""

    def op(self, phase):
        thunk = super().op(phase)
        if phase != "cold":
            return thunk

        def corrupted():
            result = thunk()
            result.C[0, 0] += 1.0
            return result

        return corrupted


def test_corrupted_output_counts_as_failed(tmp_path):
    workload = _CorruptingKmer(True, tmp_path)
    result = measure.end_to_end_pass(workload, seed=7, seconds=1)
    # Both cold samples fail the reference check; the rest stand.
    assert result["failed"] == measure.SMOKE_SAMPLES
    assert result["attempted"] == 3 * measure.SMOKE_SAMPLES
    share = result["end_to_end"]["failed_share"]["value"]
    assert share == pytest.approx(1 / 3)
    assert "cold_s" not in result["end_to_end"]
    assert any("scipy reference" in r for r in result["failures"])
    record = run.driver_record(
        {**result, "end_to_end": {
            name: {"value": 1.0, "unit": "s"}
            for name in catalog.DRIVER_END_TO_END
        }}, ["e2e"],
    )
    assert record["correct"] is False and record["failed"] == 2


def test_raising_operation_counts_as_failed(tmp_path):
    class Raising(workloads.KmerAsync):
        def op(self, phase):
            if phase == "planhit":
                return lambda: 1 / 0
            return super().op(phase)

    result = measure.end_to_end_pass(Raising(True, tmp_path), 7, 1)
    assert result["failed"] == measure.SMOKE_SAMPLES
    assert any("ZeroDivisionError" in r for r in result["failures"])


def test_missing_probe_target_yields_null(tmp_path, monkeypatch):
    probes = [
        Probe("core.finalize", "repro.core.formats",
              "AsyncStripeMatrix.renamed_away")
        if p.span == "core.finalize" else p
        for p in catalog.PROBES
    ] + [Probe("cluster.rget", "repro.no_such_module", "f")]
    monkeypatch.setattr(measure, "PROBES", probes)
    result = measure.layers_pass(
        workloads.KmerAsync(True, tmp_path), 7, None
    )
    assert result["failed"] == 0
    finalize = result["per_layer"]["core.finalize_s"]
    assert finalize["value"] is None
    assert "renamed_away" in finalize["reason"]
    for metric in ("cluster.rget_s", "cluster.rget_calls"):
        assert result["per_layer"][metric]["value"] is None
    assert result["per_layer"]["core.preprocess_s"]["value"] > 0
    record = run.driver_record(result, ["layers"])
    assert record["metrics"]["core.finalize_s"]["value"] == run.MISSING


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------
def test_tracer_self_time_and_restore():
    import repro.sparse.csr as csr_module
    from repro.sparse import COOMatrix, CSRMatrix

    raw = vars(CSRMatrix)["from_coo"]
    tracer = Tracer()
    probes = [
        Probe("sparse.csr_build", "repro.sparse.csr", "CSRMatrix.from_coo"),
        Probe("sparse.csr_build", "repro.sparse.coo",
              "COOMatrix.sorted_row_major"),
    ]
    coo = COOMatrix([1, 0], [0, 1], [1.0, 2.0], (2, 2))
    with tracer.installed(probes), tracer.op("cold"):
        with tracer.span("outer"):
            built = CSRMatrix.from_coo(coo)
    assert built.nnz == 2
    assert vars(csr_module.CSRMatrix)["from_coo"] is raw
    assert tracer.missing == {}

    table = tracer.summarize()[0]
    assert table["sparse.csr_build"]["calls"] == 2  # nested, same name
    outer, inner = table["outer"], table["sparse.csr_build"]
    # busy counts the outermost same-named span once.
    assert inner["busy_s"] <= outer["busy_s"]
    assert inner["self_s"] == pytest.approx(inner["busy_s"])
    assert outer["self_s"] == pytest.approx(
        outer["busy_s"] - inner["busy_s"]
    )
    root = table["op.cold"]
    assert root["self_s"] == pytest.approx(
        root["busy_s"] - outer["busy_s"]
    )


# ----------------------------------------------------------------------
# The comparer
# ----------------------------------------------------------------------
def _timing(value, spread=0.0):
    return {"value": value, "unit": "s", "n": 9,
            "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2),
            "min": value * (1 - spread), "max": value * (1 + spread)}


def _document(cold=1.0, sim=0.5, failed_share=0.0, spread=0.0):
    return {"workloads": {"kmer_async": {"end_to_end": {
        "cold_s": _timing(cold, spread),
        "sim_s": {"value": sim, "unit": "sim_s", "exact": True},
        "failed_share": {"value": failed_share, "unit": "ratio"},
    }}}}


def _verdicts(base, new):
    return {row[1]: row[-1] for row in compare.compare(base, new)}


def test_compare_verdicts():
    base = _document()
    assert set(_verdicts(base, _document()).values()) == {compare.OK}
    assert _verdicts(base, _document(cold=1.09))["cold_s"] == compare.OK
    assert _verdicts(base, _document(cold=1.2))["cold_s"] == compare.REGRESSED
    assert _verdicts(base, _document(cold=0.5))["cold_s"] == compare.OK
    # Exact metrics are compared with ==, in both directions.
    assert _verdicts(base, _document(sim=0.5001))["sim_s"] == (
        compare.REGRESSED
    )
    assert _verdicts(base, _document(sim=0.4))["sim_s"] == compare.REGRESSED
    assert _verdicts(base, _document(failed_share=0.1))["failed_share"] == (
        compare.REGRESSED
    )
    # A base noisier than the bound cannot resolve an overlapping run.
    noisy = _document(spread=0.3)
    assert _verdicts(noisy, _document(cold=1.2, spread=0.3))["cold_s"] == (
        compare.UNRESOLVED
    )
    assert _verdicts(noisy, _document(cold=2.0))["cold_s"] == (
        compare.REGRESSED
    )


def test_compare_files_exit_codes(smoke, tmp_path):
    document = smoke["document"]
    assert compare.compare_files(str(smoke["out"]), str(smoke["out"])) == 2
    full = dict(document, smoke=False)
    base = tmp_path / "base.json"
    base.write_text(json.dumps(full))
    assert compare.compare_files(str(base), str(base)) == 0
    worse = json.loads(json.dumps(full))
    worse["workloads"]["queen_sync"]["end_to_end"]["sim_s"]["value"] *= 2
    new = tmp_path / "new.json"
    new.write_text(json.dumps(worse))
    assert compare.compare_files(str(base), str(new)) == 1
    other_seed = tmp_path / "seed.json"
    other_seed.write_text(json.dumps(dict(full, seed=11)))
    assert compare.compare_files(str(base), str(other_seed)) == 2

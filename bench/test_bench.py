"""Tests of the benchmark itself: checkers, generators, tracing and timing.

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import k3mukai as api
import k3mukai.cli  # noqa: F401  (prepare() calls api.cli.main)
import oracle
import run
import workloads
from tracing import Tracer, per_layer_names
from workloads import GENERATORS, Op, check, negative_control, prepare


def _first(workload: str, kind: str) -> Op:
    return next(op for op in GENERATORS[workload](7, 1) if op.kind == kind)


def _perturb_doc(out, key_path, value):
    code, text = out
    doc = json.loads(text)
    target = doc
    for key in key_path[:-1]:
        target = target[key]
    target[key_path[-1]] = value
    return code, json.dumps(doc)


# -- every checker accepts the real output and rejects a perturbed one ---------------


@pytest.mark.parametrize("kind", ["segre", "verlinde"])
def test_number_checkers_reject_plus_one_seventh(kind):
    op = Op(kind, (3, 1, 2, -4, 6) if kind == "segre" else (3, 2, 5, 6))
    value = prepare(api, op)()
    assert check(api, op, value)
    assert not check(api, op, value + Fraction(1, 7))


@pytest.mark.parametrize("kind,workload", [
    ("cli-segre", "tables-warm"), ("cli-verlinde", "tables-warm"),
    ("cli-dim2", "tables-warm"), ("cli-check-sv", "sv-grid"),
])
def test_cli_checkers_reject_wrong_value_and_exit_code(kind, workload):
    op = _first(workload, kind)
    out = prepare(api, op)()
    assert check(api, op, out)
    assert not check(api, op, (1, out[1]))
    key = "f_identity" if kind == "cli-check-sv" else "value"
    wrong = False if kind == "cli-check-sv" else str(Fraction(json.loads(out[1])["value"]) + Fraction(1, 7))
    assert not check(api, op, _perturb_doc(out, [key], wrong))


def test_reduce_checker_rejects_wrong_invariants():
    op = _first("tables-warm", "cli-reduce")
    out = prepare(api, op)()
    assert check(api, op, out)
    doc = json.loads(out[1])
    for key_path in (["beta", "rank"], ["beta", "v2"], ["u_prime"]):
        target = doc
        for key in key_path:
            target = target[key]
        assert not check(api, op, _perturb_doc(out, key_path, str(Fraction(target) + Fraction(1, 7))))


def test_cross_check_checker_rejects_false():
    op = _first("tables-warm", "cross-check")
    assert check(api, op, prepare(api, op)())
    assert not check(api, op, False)


def test_span_checker_rejects_perturbed_outputs():
    op = GENERATORS["lattice-span"](7, 1)[0]
    out = prepare(api, op)()
    assert check(api, op, out)
    for i, (fp, ys, rank, dim, ws, iso) in enumerate(out):
        def with_item(item):
            return [*out[:i], item, *out[i + 1:]]
        assert not check(api, op, with_item((fp, ys, rank + 1, dim, ws, iso)))
        shifted = [ys[0] + api.point_class(ys[0].space), *ys[1:]]
        assert not check(api, op, with_item((fp, shifted, rank, dim, ws, iso)))
        assert not check(api, op, with_item((fp, ys, rank, dim, ws[::-1], iso)))


def test_negative_control_catches_a_check_that_always_passes(monkeypatch):
    assert negative_control(api, "sv-grid")
    report = api.check_correspondence(2, 1, 4)
    monkeypatch.setattr(api, "check_correspondence", lambda *a, **k: report)
    assert not negative_control(api, "sv-grid")


def test_oracle_matches_known_values():
    assert oracle.segre_value(1, 1, 3, 0, 2) == 3
    assert oracle.verlinde_value(2, 1, 3, 2) == Fraction(165, 32)
    assert oracle.verlinde_value(1, 0, 3, 2) == 6
    assert [[int(x) for x in row] for row in api.k3_lattice().gram] == oracle.K3_GRAM


# -- generators ----------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_generators_are_deterministic_in_the_seed(workload):
    gen = GENERATORS[workload]
    assert gen(11, 6) == gen(11, 6)
    assert gen(11, 6) != gen(12, 6)


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_seconds_keep_the_mix_of_operations(workload):
    short, long = GENERATORS[workload](5, 4), GENERATORS[workload](5, 20)
    assert len(long) > len(short)
    for kind in {op.kind for op in long}:
        n_short = sum(op.kind == kind for op in short)
        n_long = sum(op.kind == kind for op in long)
        assert n_short * len(long) == n_long * len(short)


def _builder_keys(op: Op) -> list[tuple]:
    if op.kind == "segre":
        rho, s, _, _, n = op.args
        return [("vwx", rho, s, n + 4), ("t_of_z", rho, s, n + 4)]
    if op.kind == "verlinde":
        rho, r, _, n = op.args
        return [("fg", rho, r, n + 4)]
    rho, r, order = op.args
    return [("vwx", rho, rho + r, order), ("fg", rho, r, order)]


@pytest.mark.parametrize("workload", ["numbers-cold", "sv-grid"])
@pytest.mark.parametrize("seconds", [1, 20, 60])
def test_cold_generators_never_repeat_a_builder_key(workload, seconds):
    keys = [k for op in GENERATORS[workload](3, seconds) for k in _builder_keys(op)]
    assert len(keys) == len(set(keys))


def test_lattice_operations_plant_radicals_of_each_dimension():
    for op in GENERATORS["lattice-span"](2, 1):
        radicals = []
        for v, xs, _, _ in op.args:
            full = [v, *xs]
            assert oracle.pairing(v, v) >= 2
            radicals.append(oracle.gauss_rank(full) - oracle.gauss_rank(oracle.pairing_matrix(full)))
        assert sorted(radicals) == list(workloads.LATTICE_RADICAL_DIMS)


# -- tracing and timing --------------------------------------------------------------


def _traced(workload: str, seconds: float) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        for op in GENERATORS[workload](1, seconds):
            prepare(api, op)()
    finally:
        tracer.uninstall()
    return {k: v["value"] for k, v in tracer.metrics(1.0).items()}


def test_trace_reports_every_per_layer_metric_and_restores_the_package():
    original = api.segre_verlinde.build_vwx
    metrics = _traced("sv-grid", 0.1)
    assert list(metrics) == per_layer_names()
    assert api.segre_verlinde.build_vwx is original
    assert metrics["series.revert.calls"] == 0
    assert metrics["cli.main.calls"] == len(workloads.SV_RHOS)
    assert metrics["segre_verlinde.key_repeat_share"] == 0


def test_trace_counts_repeated_builder_keys_on_warm_tables():
    metrics = _traced("tables-warm", 1)
    assert metrics["segre_verlinde.key_repeat_share"] > 0.5
    assert metrics["series.max_coeff_bits"] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(100)]) == (90.0, 89.0)
    assert run.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)


def test_speed_uses_the_nearest_probes():
    probes = [(float(t), run.PROBE_NOMINAL_S * (2 if t >= 10 else 1)) for t in range(20)]
    assert run.speed(probes, 2.0) == 1
    assert run.speed(probes, 17.0) == 2


# -- the whole run (these re-import k3mukai, so they come last) ---------------------


def test_run_without_sources_exits_2_and_prints_nothing(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sv-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_run_reports_a_wrong_output_as_incorrect(monkeypatch, capsys):
    monkeypatch.setattr(run, "check", lambda api, op, out: False)
    argv = ["--workload", "lattice-span", "--seed", "1", "--seconds", "0.1", "--trace", "0"]
    assert run.main(argv) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert set(result["metrics"]) == {"throughput_rps", "latency_p50_s", "latency_tail_s",
                                      "peak_rss_mb", "setup_s"}

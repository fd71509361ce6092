"""Tests of the benchmark harness at reduced sizes.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import cProfile
import json
import math
import os
import pstats
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
for path in (SRC, BENCH_DIR, os.path.join(HERE, "fixture")):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import layers  # noqa: E402
import rep  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: every workload at a size that runs in well under a second
SMALL = {
    "nas_lu_c64": {"cls": "A", "procs": 16, "sim_iters": 1},
    "allreduce_64k_p64": {"procs": 8, "size": 65536, "reps": 2,
                          "warmup": 1, "elems": 16},
    "stencil_mr_pioman": {"procs": 4, "nodes": 2, "iters": 3},
    "profile_msgrate": {"messages": 100, "window": 8, "max_size": 2048,
                        "tags": 3},
}
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def layer_results():
    return {name: rep.layer_pass({"workload": name, "seed": 3,
                                  "params": SMALL[name]})
            for name in workloads.WORKLOADS}


def test_metric_names_are_well_formed(bench):
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_every_layer_metric_present_for_every_workload(bench, layer_results):
    wanted = {m["name"] for m in bench["per_layer"]}
    for name, result in layer_results.items():
        assert result["problems"] == [], name
        assert wanted <= set(result["metrics"]), (
            name, wanted - set(result["metrics"]))
        assert all(math.isfinite(v) for v in result["metrics"].values())


def test_every_end_to_end_metric_present_for_every_workload(bench):
    wanted = {m["name"] for m in bench["end_to_end"]}
    for name in workloads.WORKLOADS:
        tally, metrics = run.measure_end_to_end(name, 2, 0.0,
                                                params=SMALL[name])
        assert (tally.attempted, tally.failed) == (2, 0), name
        assert set(metrics) == wanted
        assert all(v > 0 for v in metrics.values()), (name, metrics)
        assert tally.provenance["scheduler"]
        assert tally.provenance["nproc"] == os.cpu_count()


def test_layer_shares_sum_to_one(layer_results):
    for name, result in layer_results.items():
        m = result["metrics"]
        shares = [m[f"host_share.{layer}"] for layer in layers.LAYERS]
        assert sum(shares) == pytest.approx(1.0, abs=1e-9), name
        self_s = sum(m[f"host_self_s.{layer}"] for layer in layers.LAYERS)
        assert self_s == pytest.approx(m["host_profiled_s"], rel=1e-9)


def test_layers_see_their_workload(layer_results):
    m = {name: r["metrics"] for name, r in layer_results.items()}
    assert m["stencil_mr_pioman"]["pioman.ltasks"] > 0
    assert m["stencil_mr_pioman"]["host_self_s.pioman"] > 0
    assert m["stencil_mr_pioman"]["nic.tx_bytes.mx"] > 0
    assert m["allreduce_64k_p64"]["coll.calls"] > 0
    assert m["profile_msgrate"]["host_self_s.observability"] > 0
    assert m["nas_lu_c64"]["mpich2.sends.shm"] > 0
    for name, metrics in m.items():
        assert metrics["host_self_s.simulator"] > 0, name
        assert metrics["sim.events_per_msg"] > 1, name


def test_boundary_calls_on_two_module_fixture():
    import alpha

    def layer_of(filename):
        base = os.path.basename(filename)
        return {"alpha.py": "alpha", "beta.py": "beta"}.get(base, "other")

    prof = cProfile.Profile()
    prof.runcall(alpha.drive, 5)
    stats = pstats.Stats(prof)
    self_s, boundary = layers.aggregate(stats.stats, layer_of,
                                        ("alpha", "beta", "other"))
    # beta.leaf x5 and beta.fanout x1 are entered from alpha; helper is
    # called from inside beta and does not count
    assert boundary["beta"] == 6
    # alpha.callback x3 from beta.fanout
    assert boundary["alpha"] == 3
    assert sum(self_s.values()) == pytest.approx(stats.total_tt, rel=1e-12)


def test_repro_layer_mapping(tmp_path):
    app = os.path.join(BENCH_DIR, "workloads.py")
    layer_of = layers.repro_layer_of(SRC, [app])
    pkg = os.path.join(SRC, "repro")
    cases = {
        os.path.join(pkg, "nmad", "core.py"): "nmad",
        os.path.join(pkg, "nmad", "strategies", "aggreg.py"): "nmad.strategies",
        os.path.join(pkg, "nmad", "drivers", "ib.py"): "nmad.drivers",
        os.path.join(pkg, "mpich2", "ch3.py"): "mpich2",
        os.path.join(pkg, "mpich2", "nemesis", "shm.py"): "mpich2.nemesis",
        os.path.join(pkg, "simulator", "engine.py"): "simulator",
        os.path.join(pkg, "workloads", "nas", "lu.py"): "workloads",
        os.path.join(pkg, "config.py"): "other",
        app: "workloads",
        "~": "other",
        os.path.join(str(tmp_path), "repro", "mpi", "api.py"): "other",
    }
    assert {path: layer_of(path) for path in cases} == cases


def test_pin_problems_fire_on_wrong_value():
    pins = {"w": {"elapsed": 1.5, "messages": 10}}
    assert workloads.pin_problems("w", 0, {"elapsed": 1.5, "messages": 10},
                                  pins) == []
    wrong = workloads.pin_problems("w", 0, {"elapsed": 1.5000001,
                                            "messages": 10}, pins)
    assert len(wrong) == 1 and "elapsed" in wrong[0]
    # other seeds check only the seed-independent message count
    assert workloads.pin_problems("w", 7, {"elapsed": 2.0, "messages": 10},
                                  pins) == []
    assert workloads.pin_problems("w", 7, {"elapsed": 2.0, "messages": 11},
                                  pins)


def test_gate_counts_a_wrong_pinned_value_as_a_failed_run():
    name, params = "profile_msgrate", SMALL["profile_msgrate"]
    job = workloads.build(name, workloads.DEFAULT_SEED, params)
    good = {name: job.run()}
    assert job.check() == []
    tally, metrics = run.measure_end_to_end(name, 4, 0.0, params, pins=good)
    assert (tally.attempted, tally.failed) == (2, 0)

    bad = {name: dict(good[name], elapsed=good[name]["elapsed"] * 1.000001)}
    tally, metrics = run.measure_end_to_end(name, 4, 0.0, params, pins=bad)
    # the default-seed gate fails; the seed-4 run still measures
    assert (tally.attempted, tally.failed) == (2, 1)
    assert metrics


def test_a_raising_run_counts_as_failed():
    params = dict(SMALL["profile_msgrate"], window=0)   # range() step 0
    tally, metrics = run.measure_end_to_end("profile_msgrate", 1, 0.0, params)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert metrics == {}


def test_matrix_names_only_declared_metrics_and_workloads(bench):
    matrix = workloads.load_matrix()
    assert set(matrix["pins"]) == set(workloads.WORKLOADS)
    assert all("messages" in pin for pin in matrix["pins"].values())
    per_layer = {m["name"] for m in bench["per_layer"]}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for row in matrix["layer_map"]:
        assert set(row["layer_metrics"]) <= per_layer, row
        assert set(row["moves"]) <= end_to_end, row
        assert set(row["workloads"]) <= set(workloads.WORKLOADS), row


def test_lu_program_matches_run_kernel():
    from dataclasses import replace

    from repro import config
    from repro.workloads.nas import default_nas_cluster, run_kernel

    params = SMALL["nas_lu_c64"]
    job = workloads.build("nas_lu_c64", workloads.DEFAULT_SEED, params)
    ours = job.run()["projected_s"]
    cluster, rpn = default_nas_cluster(params["procs"])
    cluster = replace(cluster, node=replace(cluster.node,
                                            compute_jitter=workloads.JITTER))
    ref = run_kernel("lu", params["cls"], params["procs"], config.mpich2_nmad(),
                     cluster=cluster, ranks_per_node=rpn,
                     sim_iters=params["sim_iters"])
    assert ours == ref.time_seconds


def test_allreduce_program_matches_collbench():
    from repro import config
    from repro.workloads.collbench import run_collbench

    p = SMALL["allreduce_64k_p64"]
    job = workloads.build("allreduce_64k_p64", 1, p)
    ours = job.run()["per_op"]
    assert job.check() == []
    ref = run_collbench(config.mpich2_nmad(), p["procs"], "allreduce",
                        p["size"], reps=p["reps"], warmup=p["warmup"])
    assert ref.algorithm == "rabenseifner"
    assert ours == ref.per_op


def test_refuses_environment_knobs():
    for knob in run.KNOBS:
        env = dict(os.environ, **{knob: "heap"})
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", "profile_msgrate", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert knob in proc.stderr


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k not in run.KNOBS}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "profile_msgrate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("failed", [0, 1])
def test_exit_status_follows_correctness(bench, monkeypatch, capsys, failed):
    def fake(trace):
        def measure(name, seed, *args, **kwargs):
            tally = run.Tally()
            tally.attempted, tally.failed = 2, failed
            specs = bench["per_layer"] if trace else bench["end_to_end"]
            return tally, {spec["name"]: 1.0 for spec in specs}
        return measure

    monkeypatch.setattr(run, "measure_end_to_end", fake(0))
    monkeypatch.setattr(run, "measure_layers", fake(1))
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    monkeypatch.delenv("REPRO_PROGRESS", raising=False)
    for argv in (["--workload", "nas_lu_c64", "--trace", "1"],
                 ["--workload", "all"]):
        status = run.main(argv)
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert last["correct"] is (failed == 0)
        assert status == (1 if failed else 0), argv


def test_probe_typical_chunk_drops_the_slowest_quarter():
    assert hostspeed._typical([1.0, 1.0, 1.0, 9.0]) == 1.0
    assert hostspeed._typical([2.0]) == 2.0


def test_probe_times_chunks_while_the_caller_runs():
    probe = hostspeed.Probe()
    probe.start()
    try:
        hostspeed.reference_loop(200 * hostspeed.CHUNK_EVENTS)
        busy = probe.split()
        idle = probe.split()        # likely nothing since: times one now
    finally:
        probe.close()
    assert busy["chunks"] >= 1 and busy["wall"] > 0
    assert idle["chunks"] > 0 or idle["wall"] == 0
    for split in (busy, idle):
        assert split["chunk_wall"] > 0 and split["chunk_cpu"] > 0
    assert not probe.is_alive()


def test_scaling_to_the_reference_speed():
    def rep_at(chunk):
        return {"wall_s": 2.0, "cpu_s": 1.5, "setup_s": 0.5,
                "peak_rss_mib": 50.0, "outputs": {"messages": 1000},
                "probe": {"chunk_wall": chunk, "chunk_cpu": chunk}}

    at_reference = run.scaled(rep_at(run.REFERENCE_S))
    assert at_reference == {"wall_s": 2.0, "cpu_s": 1.5, "setup_s": 0.5,
                            "msgs_per_s": 500.0, "peak_rss_mib": 50.0}
    # a host twice as slow for the probe reads 2**EXPONENT faster
    slow = run.scaled(rep_at(2 * run.REFERENCE_S))
    assert slow["cpu_s"] == pytest.approx(1.5 / 2 ** run.EXPONENT)
    assert slow["peak_rss_mib"] == 50.0


def test_timed_runs_cycle_through_instances(monkeypatch):
    seeds = []

    def fake_spawn(self, req, runs=1, pins=None):
        self.attempted += runs
        seeds.append(req["seed"])
        return None

    monkeypatch.setattr(run.Tally, "spawn", fake_spawn)
    clock = iter(range(100))
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    run.measure_end_to_end("nas_lu_c64", 3, 2 * run.INSTANCES)
    assert seeds[0] == workloads.DEFAULT_SEED
    timed = seeds[1:]
    assert sorted(set(timed)) == [3 * run.INSTANCES + i
                                  for i in range(run.INSTANCES)]

"""The repository benchmark: one command for every workload and metric.

Usage, from the repository root:

    python3 perfbench/run.py --workload wordcount --seed 1 --seconds 40 \
        --trace 0

``--workload`` is one of ``wordcount``, ``kafka_cluster``,
``elastic_checkpoint`` or ``all``. With ``--trace 0`` the run starts two
fresh worker processes (one at a time, single-threaded) that share
``--seconds`` taking samples of the workload's fixed simulated window,
each after four that only set up. It reports the end-to-end metrics:
host-side costs (wall times at the speed probe's full speed, with the
plain medians and quartiles beside them), and simulated (``sim_*``)
metrics, which must be identical in every sample. With ``--trace 1`` it
runs one untraced and one traced worker and reports the per-layer
metrics, then runs the workload once more with the next seed to show
that the seed reaches the inputs. See README.md in this directory.

Every line but the last is a human-readable report; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A full record of each run (every process and sample, the
environment, the reference checks) is written under ``perfbench/out/``.
The exit code is 0 when every reference and determinism check passed, 1
when one failed and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from pb_spec import SIM_EXTRA_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh processes per untraced run that take samples. Two, so that
#: every run checks determinism across processes.
SAMPLING_WORKERS = 2
#: Extra processes per untraced run that only set up (``setup_s`` is one
#: reading per process, so these make it steadier).
SETUP_ONLY_WORKERS = 8
#: Seconds of ``--seconds`` left for the set-up-only workers.
SETUP_ONLY_RESERVE_S = 6.0
#: Longest one worker may take beyond its sampling budget before the run
#: is abandoned.
WORKER_GRACE_S = 100.0
#: The probe's time (``probe_s`` in worker.py) at full speed on the
#: machine the benchmark was written on, where the fastest readings were
#: 1.08 to 1.2 ms. Wall times are reported at that speed.
PROBE_FULL_SPEED_S = 1.1e-3
#: Settings that change the engine under measurement. They are removed
#: from the workers' environment and reported when they were set.
ENGINE_ENV = ("REPRO_PARALLEL", "REPRO_KERNEL", "REPRO_SANITIZE")
DEFAULT_KERNEL = "calendar"


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_spec() -> Dict[str, Any]:
    """Workload and metric names and units, from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path.name}: {exc}") from exc
    return {"workloads": tuple(w["name"] for w in spec["workloads"]),
            "end_to_end": [(m["name"], m["unit"])
                           for m in spec["end_to_end"]],
            "per_layer": [(m["name"], m["unit"])
                          for m in spec["per_layer"]]}


def environment() -> Dict[str, Any]:
    """What the numbers depend on besides the code."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        else:
            commit = ref
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "engine_env_removed": {k: os.environ[k] for k in ENGINE_ENV
                               if k in os.environ},
    }


def run_worker(workload: str, seed: int, *, traced: bool = False,
               budget: float = 0.0,
               setup_only: bool = False) -> Dict[str, Any]:
    """Start one fresh worker process, wait for it, return its record."""
    env = {k: v for k, v in os.environ.items() if k not in ENGINE_ENV}
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0",
           "--budget", repr(budget)]
    if setup_only:
        cmd.append("--setup-only")
    started = _clock()
    # Its own session, so that a timeout kills the worker together with
    # the sample process it may have forked.
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(started)], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=budget + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchmarkError(f"{workload} worker timed out") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} worker exited with "
                             f"{proc.returncode}:\n{stderr[-3000:]}")
    try:
        record = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchmarkError(f"{workload} worker printed no result") from exc
    record["process_s"] = _clock() - started
    return record


def collect(workload: str, seed: int, seconds: float,
            trace: bool) -> List[Dict[str, Any]]:
    """Worker records for one run, spending about ``seconds``.

    Untraced: SAMPLING_WORKERS workers sharing ``seconds`` (less what
    the set-up-only workers need), each after SETUP_ONLY_WORKERS /
    SAMPLING_WORKERS workers that only set up, for more ``setup_s``
    samples. Traced: one untraced worker, one traced worker, then one
    worker with the next seed.
    """
    if trace:
        return [run_worker(workload, seed, budget=seconds / 3),
                run_worker(workload, seed, traced=True, budget=seconds / 2),
                run_worker(workload, seed + 1)]
    budget = max(seconds - SETUP_ONLY_RESERVE_S, 0.0) / SAMPLING_WORKERS
    workers = []
    # Set-up-only workers are spread over the run, so that the set-up
    # readings cover the same stretch of time as the samples.
    for _ in range(SAMPLING_WORKERS):
        workers += [run_worker(workload, seed, setup_only=True)
                    for _ in range(SETUP_ONLY_WORKERS // SAMPLING_WORKERS)]
        workers.append(run_worker(workload, seed, budget=budget))
    return workers


def _sim_fingerprint(sample: Dict[str, Any]) -> str:
    sim = {k: v for k, v in sample["sim"].items() if k != "failed_share"}
    return json.dumps({"sim": sim, "events": sample["events"]},
                      sort_keys=True)


def _reference_fingerprint(sample: Dict[str, Any]) -> str:
    return json.dumps({"digest": sample["digest"],
                       "checks": sample["checks"],
                       "failed_share": sample["sim"]["failed_share"]},
                      sort_keys=True)


def verdicts(workers: List[Dict[str, Any]], seed: int) -> List[Dict]:
    """Reference checks, the determinism checks across every sample of
    the seed, and the engine the numbers were taken with."""
    own = [w for w in workers if w["seed"] == seed]
    samples = [s for w in own for s in w["samples"]]
    verified = [s for s in samples if s.get("verified")]
    out = []
    for index, sample in enumerate(verified):
        for check in sample["checks"]:
            if index == 0 or not check["ok"]:
                out.append(check)
    same_sim = len({_sim_fingerprint(s) for s in samples}) == 1
    out.append({"name": f"sim metrics identical in all {len(samples)} "
                        f"samples of seed {seed}",
                "ok": same_sim, "detail": "" if same_sim else "they differ"})
    same_ref = len({_reference_fingerprint(s) for s in verified}) == 1
    out.append({"name": f"reference results identical in all "
                        f"{len(verified)} fresh processes of seed {seed}",
                "ok": same_ref, "detail": "" if same_ref else "they differ"})
    engines = {(w["env"]["kernel"], w["env"]["sanitizer"]) for w in workers}
    ok = engines == {(DEFAULT_KERNEL, False)}
    out.append({"name": "default kernel, sanitizer off", "ok": ok,
                "detail": f"kernel/sanitizer seen: {sorted(engines)}"})
    others = [w for w in workers if w["seed"] != seed]
    if others:
        theirs = others[0]["samples"][0]["digest"]
        ours = verified[0]["digest"]
        out.append({"name": f"seed {others[0]['seed']} changes the "
                            f"reference result", "ok": theirs != ours,
                    "detail": f"{ours} vs {theirs}"})
    return out


def _stat(values: List[float], unit: str,
          value: Optional[float] = None) -> Dict[str, Any]:
    """``value`` (by default the median of ``values``) with the median,
    quartiles and count of the readings it was taken from."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": median if value is None else value, "unit": unit,
            "n": len(values), "median": median, "q1": q1, "q3": q3}


def at_full_speed_s(readings: List[Dict[str, list]]) -> float:
    """Median wall time of work timed lap by lap, at the probe's full
    speed (README: "Host noise").

    A reading's cost in probe units is the sum over its laps of the lap's
    time over the probe time measured around it. A slow host slows the
    probe more than the simulator, so only the faster half of the
    readings, by their median probe time, is used.
    """
    costs = sorted((statistics.median(r["speed_s"]),
                    math.fsum(lap / speed for lap, speed
                              in zip(r["laps_s"], r["speed_s"])))
                   for r in readings)
    faster = costs[:max(1, len(costs) // 2)]
    return PROBE_FULL_SPEED_S * statistics.median(c for _s, c in faster)


def end_to_end(workers: List[Dict[str, Any]],
               spec: Dict[str, Any]) -> Dict[str, Dict]:
    """Wall times at the probe's full speed, over processes
    (``setup_s``) or samples (``run_wall_s``); ``peak_rss_mb``, the
    median; the sim metrics, identical in every sample."""
    samples = [s for w in workers for s in w["samples"]]
    wall = at_full_speed_s([s["laps"] for s in samples])
    setup = at_full_speed_s([w["setup_laps"] for w in workers])
    timed = {"setup_s": setup, "run_wall_s": wall,
             "tuples_per_wall_s": samples[0]["completed"] / wall}
    metrics = {}
    for name, unit in spec["end_to_end"]:
        if name == "setup_s":
            values = [w["setup_s"] for w in workers]
        elif name.startswith("sim_"):
            values = [s["sim"][name] for s in samples]
        else:
            values = [s[name] for s in samples]
        metrics[name] = _stat(values, unit, timed.get(name))
    return metrics


def per_layer(workers: List[Dict[str, Any]], spec: Dict[str, Any],
              info: Dict[str, Any]) -> Dict[str, Dict]:
    """Medians of the traced samples' layer metrics, plus the two that
    compare against the untraced worker."""
    plain = workers[0]["samples"]
    traced = workers[1]["samples"]
    plain_wall = at_full_speed_s([s["laps"] for s in plain])
    traced_wall = at_full_speed_s([s["laps"] for s in traced])
    values = {name: [s["layers"][name] for s in traced]
              for name in traced[0]["layers"]}
    values["simulation.events"] = [float(s["events"]) for s in traced]
    values["simulation.events_per_wall_s"] = [plain[0]["events"]
                                              / plain_wall]
    values["trace.overhead_ratio"] = [traced_wall / plain_wall]
    missing = {name for name, _unit in spec["per_layer"]} - set(values)
    if missing:
        raise BenchmarkError(f"per-layer metrics not produced: "
                             f"{sorted(missing)}")
    info["untraced_run_wall_s"] = plain_wall
    info["traced_run_wall_s"] = traced_wall
    info["spans_recorded"] = float(traced[0]["spans"])
    info["spans_dropped"] = float(traced[0]["spans_dropped"])
    return {name: _stat(values[name], unit)
            for name, unit in spec["per_layer"]}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    OUT.mkdir(exist_ok=True)
    workers = collect(workload, seed, seconds, trace)
    checks = verdicts(workers, seed)
    info: Dict[str, Any] = {}
    own = [w for w in workers if w["seed"] == seed]
    metrics = (per_layer(own, spec, info) if trace
               else end_to_end(own, spec))
    correct = all(c["ok"] for c in checks)
    verified = [s for w in own for s in w["samples"] if s.get("verified")]
    attempted = sum(s["emitted"] for s in verified)
    failed = sum(s["emitted"] if not all(c["ok"] for c in s["checks"])
                 else s["lost"] for s in verified)
    if not correct:
        failed = max(failed, verified[0]["emitted"])
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": correct, "attempted": int(round(attempted)),
            "failed": int(round(failed)), "metrics": metrics,
            "sim": verified[0]["sim"], "checks": checks, "info": info,
            "workers": workers}


def report(result: Dict[str, Any]) -> None:
    """Human-readable lines for one workload."""
    workers = result["workers"]
    print(f"== {result['workload']} seed={result['seed']} "
          f"trace={int(result['trace'])} processes={len(workers)} "
          f"samples={sum(len(w['samples']) for w in workers)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']:<9}"
              f" n={metric['n']:<3} median={metric['median']:.6g} "
              f"q1={metric['q1']:.6g} q3={metric['q3']:.6g}")
    if not result["trace"]:
        for name, value in sorted(result["sim"].items()):
            if name in SIM_EXTRA_UNITS:
                print(f"  {name:<36} {value:>16.6g} "
                      f"{SIM_EXTRA_UNITS[name]:<9} (simulated, exact)")
    for key, value in result["info"].items():
        print(f"  {key:<36} {value:>16.6g}")
    for check in result["checks"]:
        print(f"  [{'PASS' if check['ok'] else 'FAIL'}] {check['name']}"
              + (f" ({check['detail']})" if check["detail"] else ""))


def main(argv=None) -> int:
    try:
        spec = load_spec()
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=spec["workloads"] + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise BenchmarkError(f"no program source under {ROOT / 'src'}")
        env = environment()
        print(f"environment: {json.dumps(env, sort_keys=True)}")
        if env["engine_env_removed"]:
            print(f"WARNING: ignored engine settings "
                  f"{env['engine_env_removed']}", file=sys.stderr)
        names = (spec["workloads"] if args.workload == "all"
                 else (args.workload,))
        results = [run_workload(name, args.seed, args.seconds,
                                bool(args.trace), spec) for name in names]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    for result in results:
        report(result)
        result["environment"] = env
        path = OUT / (f"result-{result['workload']}-seed{args.seed}-"
                      f"trace{args.trace}.json")
        path.write_text(json.dumps(result, indent=1, sort_keys=True))
    metrics: Dict[str, Dict[str, Any]] = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name, metric in result["metrics"].items():
            metrics[prefix + name] = {"value": metric["value"],
                                      "unit": metric["unit"]}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

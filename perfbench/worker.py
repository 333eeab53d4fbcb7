"""One fresh process of one benchmark workload.

Started by ``run.py``; it can also be run by hand:

    python3 perfbench/worker.py --workload wordcount --seed 1 \
        --spawned-at 0 --budget 10

The process sets the workload up (``setup_s`` is measured from
``--spawned-at``, a ``CLOCK_MONOTONIC`` reading the parent takes just
before starting it, so interpreter start and imports count), warms it up,
and then takes samples of the fixed simulated window, timed lap by lap
with a probe of the host's speed between laps (``LapTimer``). Each sample
runs in a ``fork`` of the warm process, so every sample simulates exactly the
same window from exactly the same state: their spread is the host's
noise alone, and set-up and warm-up are paid once per process instead of
once per sample. Samples are taken one at a time until ``--budget``
seconds have passed since the spawn; the first sample of each process
also drains the topology and runs the reference checks.

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from heapq import heappop, heappush
from pathlib import Path
from typing import Any, Dict, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def _clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class _Event:
    __slots__ = ("due", "key", "value")

    def __init__(self, due: float, key: int, value: int) -> None:
        self.due = due
        self.key = key
        self.value = value


def probe_s(items: int = 1500) -> float:
    """Seconds a fixed piece of event-queue-like work takes (about 1 ms
    at full speed): a reading of the host's speed at this moment."""
    started = time.perf_counter()
    heap: list = []
    totals: Dict[int, int] = {}
    for i in range(items):
        event = _Event(i * 0.37 % 101, i & 255, i)
        heappush(heap, (event.due, i, event))
        totals[event.key] = totals.get(event.key, 0) + event.value
        if len(heap) > 32:
            heappop(heap)
    return time.perf_counter() - started


class LapTimer:
    """Times work lap by lap, probing the host's speed between laps.

    ``laps_s`` holds each lap's wall time (the probes excluded) and
    ``speed_s`` the mean of the two probes before it and the two after
    (fewer at the ends). The host's speed shifts from second to second
    (README: "Host noise"); a lap is short enough to run at one speed, so
    ``lap / speed`` is its cost in probe units, and run.py converts it
    back to seconds at the probe's full speed.
    """

    def __init__(self, started: Optional[float] = None) -> None:
        self.laps_s: list = []
        self.probes_s: list = []
        if started is None:
            self.probes_s.append(probe_s())
            started = _clock()
        self._last = started

    def lap(self) -> None:
        self.laps_s.append(_clock() - self._last)
        self.probes_s.append(probe_s())
        self._last = _clock()

    def record(self) -> Dict[str, list]:
        probes = self.probes_s
        # 1 when a probe ran before the first lap, else 0.
        first = len(probes) - len(self.laps_s)
        speed = []
        for k in range(len(self.laps_s)):
            after = k + first  # the probe right after lap k
            near = probes[max(after - 2, 0):after + 2]
            speed.append(sum(near) / len(near))
        return {"laps_s": self.laps_s, "speed_s": speed}


def measure(workload, tracer, verify: bool,
            spans: Optional[Path]) -> Dict[str, Any]:
    """Simulate the window once (in a forked child) and describe it."""
    sim = workload.cluster.sim
    probe = None
    if tracer is not None:
        from pb_trace import LayerProbe
        probe = LayerProbe(tracer, workload)
    events0 = sim.events_processed
    completed0 = workload.completed()
    window = [sim.now]
    faults0 = _minor_faults()
    timer = LapTimer()
    workload.run_window(timer.lap)
    run_wall_s = sum(timer.laps_s)
    # Mostly the copy-on-write faults of the fork (README: "Samples in
    # forks"); a process that never forked takes few or none.
    minor_faults = _minor_faults() - faults0
    window.append(sim.now)
    completed = workload.completed() - completed0
    sim_window_s = window[1] - window[0]
    sample: Dict[str, Any] = {
        "run_wall_s": run_wall_s,
        "laps": timer.record(),
        "completed": completed,
        "tuples_per_wall_s": completed / run_wall_s,
        "events": sim.events_processed - events0,
        "minor_faults": minor_faults,
        "sim_window_s": sim_window_s,
        "sim": dict(workload.sim_metrics(),
                    sim_throughput_tps=completed / sim_window_s),
    }
    if probe is not None:
        sample["layers"] = probe.finish(run_wall_s)
        sample["spans"] = len(tracer.span_start)
        sample["spans_dropped"] = tracer.dropped
        if spans is not None:
            tracer.write_spans(spans, {
                "workload": workload.name, "seed": workload.seed,
                "window_sim_s": window})
    # The high-water mark of the program, before the reference check
    # allocates anything of its own.
    sample["peak_rss_mb"] = _peak_rss_mb()
    if verify:
        checks, digest, emitted, lost = workload.verify()
        sample.update(
            verified=True, digest=digest, emitted=emitted, lost=lost,
            checks=[{"name": n, "ok": ok, "detail": d}
                    for n, ok, d in checks])
        # A run whose reference check fails counts as fully failed.
        passed = emitted and all(ok for _n, ok, _d in checks)
        sample["sim"]["failed_share"] = lost / emitted if passed else 1.0
    return sample


def sample_in_fork(workload, tracer, verify: bool,
                   spans: Optional[Path]) -> Dict[str, Any]:
    """Run :func:`measure` in a child process; the warm state here is
    left untouched for the next sample."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        status = 0
        try:
            payload = {"ok": True,
                       "sample": measure(workload, tracer, verify, spans)}
        except BaseException:  # noqa: B036 - reported, then _exit below
            # A forked child must never unwind into the parent's code:
            # every failure is reported through the pipe instead.
            payload = {"ok": False, "error": traceback.format_exc()}
            status = 1
        with os.fdopen(write_fd, "w") as pipe:
            pipe.write(json.dumps(payload))
        os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    _pid, status = os.waitpid(pid, 0)
    if not text:
        raise RuntimeError(f"sample process died (wait status {status})")
    payload = json.loads(text)
    if not payload["ok"]:
        raise RuntimeError(f"sample failed:\n{payload['error']}")
    return payload["sample"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="stop sampling this many seconds after the "
                             "spawn (at least one sample is taken)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once the topology is running")
    args = parser.parse_args(argv)
    spans = (HERE / "out" / f"spans-{args.workload}-seed{args.seed}.bin"
             if args.trace else None)
    # Set-up laps: interpreter start; imports; topology and cluster
    # build; submission; wait_until_running.
    timer = LapTimer(started=args.spawned_at)
    timer.lap()
    from pb_workloads import WORKLOADS
    tracer = None
    if args.trace:
        from pb_trace import Tracer
        tracer = Tracer().install()

    timer.lap()
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup(timer.lap)
    setup_s = sum(timer.laps_s)
    sim = workload.cluster.sim
    result: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "setup_laps": timer.record(),
        "env": {
            "kernel": sim.kernel,
            "sanitizer": sim.sanitizer is not None,
            "repro_env": {k: v for k, v in sorted(os.environ.items())
                          if k.startswith("REPRO_")},
        },
        "samples": [],
    }
    if not args.setup_only:
        workload.warmup()
        samples = result["samples"]
        durations = []
        while True:
            started = _clock()
            samples.append(sample_in_fork(
                workload, tracer, verify=not samples,
                spans=spans if not samples else None))
            durations.append(_clock() - started)
            # The first sample also verifies; later ones take about
            # as long as the fastest so far.
            if _clock() + min(durations) > args.spawned_at + args.budget:
                break
        for sample in samples:
            sample["peak_rss_mb"] = max(sample["peak_rss_mb"],
                                        _peak_rss_mb())
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for qtoken: scenario throughput, bank service latency, per-layer traces.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {forgery,audit,suite,bank,all} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` is a separate run that wraps qtoken's module boundaries and
reports the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``failed / attempted`` is the run's failed ratio. The exit code is 0 only when
every output was correct. See ``perfbench/README.md`` for the workloads and
what each metric means.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("forgery", "audit", "suite", "bank")
# Set-ups per untraced run; setup_s is their median.
SCENARIO_SETUP_REPEATS = 5
BANK_SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "core.calls": "count",
    "core.self_s": "s",
    "core.swap_test.self_s": "s",
    "core.swap_test.distinct_input_ratio": "ratio",
    "core.measure_register.self_s": "s",
    "core.reduced_density.self_s": "s",
    "core.swap_probability.self_s": "s",
    "core.swap_project.self_s": "s",
    "core.random_state.self_s": "s",
    "audit.calls": "count",
    "audit.self_s": "s",
    "scheme.calls": "count",
    "scheme.self_s": "s",
    "scheme.btest.self_s": "s",
    "scheme.btest.reports_per_call": "count",
    "scheme.secret_codec.self_s": "s",
    "adversary.calls": "count",
    "adversary.self_s": "s",
    "adversary.run_forgery.submissions_per_call": "count",
    "stats.calls": "count",
    "stats.self_s": "s",
    "harness.self_s": "s",
    "bank.handle_line.calls": "count",
    "bank.handle_line.self_s": "s",
    "bank.fsync.self_s": "s",
    "bank.fsync_per_request": "ratio",
    "bank.log_bytes_per_request": "bytes",
    "bank.server_share": "ratio",
    "bank.recover_s": "s",
    "bank.recover.records_per_s": "1/s",
    "bank.latency_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


class Outcome:
    """Counts correctness checks and keeps the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(problem)

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)


# -- environment ---------------------------------------------------------------


def _filesystem_type(path: Path) -> str:
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return fstype


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, log_dir: Path) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    source = hashlib.sha256()
    for path in sorted((SRC / "qtoken").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "log_dir_fs": _filesystem_type(log_dir),
        "git_commit": _git_commit(),
        "src_sha256": source.hexdigest(),
        "seed": seed,
    }


# -- set-up probes ----------------------------------------------------------------


def _child_env() -> dict:
    """This environment with the checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_setups(repeats: int, setup) -> tuple[list[float], float]:
    """Time ``setup(rep)`` ``repeats`` times between start-up calibrations.

    ``setup`` returns its raw seconds. Each is divided by the mean start-up
    slowness (see calibrate) measured just before and just after it; returns
    the raw seconds and the median of the normalised ones.
    """
    env, cwd = _child_env(), str(ROOT)
    slowness = [calibrate.spawn_slowness(env, cwd)]
    raw = []
    for rep in range(repeats):
        raw.append(setup(rep))
        slowness.append(calibrate.spawn_slowness(env, cwd))
    return raw, statistics.median(r / ((a + b) / 2)
                                  for r, a, b in zip(raw, slowness, slowness[1:]))


def probe(workload: str, seed: int, config: dict, log_path: str = "") -> tuple[float, str]:
    """Time a fresh interpreter through the workload's set-up; returns (raw seconds, reply)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", workload, "--seed", str(seed),
           "--probe-config", json.dumps(config), "--probe-log", log_path]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    reply = proc.stdout.readline().strip()
    elapsed = time.perf_counter() - start
    _, err = proc.communicate(timeout=120)
    if proc.returncode != 0 or not reply.startswith("ready"):
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    return elapsed, reply.split(" ", 1)[-1]


def probe_main(workload: str, seed: int, config: dict, log_path: str) -> int:
    """Child side of ``probe``: import, build inputs, warm up, report ready."""
    if workload == "bank":
        import bankload

        for conn in range(config["conns"]):
            bankload.RequestStream(seed, conn, config["k"], config["planned"])
        bankload.register(log_path, config["k"], seed, config["conns"])
        print("ready", flush=True)
        return 0
    import scenarios

    wl = scenarios.ScenarioWorkload(**config)
    print("ready", scenarios.warm_up(wl, seed), flush=True)
    return 0


# -- scenario workloads -------------------------------------------------------------


def _peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def run_scenario_workload(name: str, seed: int, seconds: float, trace: bool, outcome: Outcome,
                          info: dict, wl=None,
                          setup_repeats: int = SCENARIO_SETUP_REPEATS) -> dict:
    import scenarios

    wl = wl or scenarios.WORKLOADS[name]
    probe_digests = []

    def setup(_rep: int) -> float:
        elapsed, reply = probe(name, seed, dataclasses.asdict(wl))
        probe_digests.append(reply)
        return elapsed

    if not trace:
        setups, setup_s = timed_setups(setup_repeats, setup)
    warm = scenarios.warm_up(wl, seed)
    for other in probe_digests:
        outcome.check(other == warm, f"warm-up CSV differs between processes: {other} vs {warm}")
    info["csv_sha256"] = {"warmup": warm}

    def record(call) -> None:
        outcome.attempted += call.rows
        if call.failed:
            outcome.fail(f"seed {call.seed}: rows {call.failed} differ from their expected flag",
                         len(call.failed))
        if call.sampled_misses:
            info.setdefault("sampled_misses", []).append([call.seed, call.sampled_misses])

    if not trace:
        calls = []
        start = time.perf_counter()
        while not calls or time.perf_counter() - start < seconds:
            calls.append(scenarios.timed_call(wl, scenarios.call_seed(seed, len(calls))))
            record(calls[-1])
        info["csv_sha256"]["calls"] = [[c.seed, c.sha256] for c in calls]
        info["raw"] = {"setup_s": statistics.median(setups),
                       "call_wall_s": [c.wall_s for c in calls],
                       "slowness": [c.slowness for c in calls]}
        walls = [c.normalized_wall_s for c in calls]
        return {
            "setup_s": setup_s,
            "throughput_per_s": statistics.median(wl.trials / w for w in walls),
            "latency_p50_ms": statistics.median(walls) * 1000.0,
            "peak_rss_mb": _peak_rss_mb_self(),
        }

    import tracer as tracing

    first = scenarios.call_seed(seed, 0)
    untraced = []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds / 2:
        untraced.append(scenarios.timed_call(wl, first))
        record(untraced[-1])
    tr = tracing.Tracer()
    tr.install()
    try:
        traced = scenarios.timed_call(wl, first)
    finally:
        tr.uninstall()
    record(traced)
    for call in untraced:
        outcome.check(call.sha256 == traced.sha256,
                      f"CSV of seed {first} changed between runs or under tracing")
    info["csv_sha256"]["calls"] = [[first, traced.sha256]]
    summary = tracing.summarize(tr.spans)
    missing = tracing.missing_boundaries(name, summary)
    outcome.check(not missing, f"traced run recorded no call at {missing}")
    _dump_spans(name, seed, {"benchmark": tr.document()})
    overhead = traced.normalized_wall_s / statistics.median(c.normalized_wall_s for c in untraced)
    return layer_metrics(summary, tr.counts, len(tr.swap_inputs), overhead, {}, traced.slowness)


# -- bank workload -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class BankConfig:
    k: int = 16
    conns: int = 2  # one series per connection; matches the 2 cores measured on
    # Requests per connection for each second of --seconds: about one second
    # per segment on the reference host. The count is fixed, not the time, so
    # every commit serves the same requests.
    rate: int = 4000
    traced_requests: int = 4000  # per connection, in each phase of a traced run

    def planned(self, requests: int) -> int:
        """``requests`` per connection, capped well inside the series' ``2**k`` pad indices."""
        return min(requests, 3 * 2 ** self.k // 4)


# Guard on the timed phase of a bank run, far above its expected length, so
# a server that stops answering still ends the run within its time limit.
LOOP_DEADLINE_S = 100.0


def _bank_setup(work: Path, tag: str, seed: int, cfg: BankConfig, planned: int, address: str,
                outcome: Outcome, spans_path: str | None = None, in_process: bool = False):
    """Register series into a fresh log and start a server; returns (seconds, server, log)."""
    import bankload

    log = str(work / f"{tag}.log")
    start = time.perf_counter()
    if in_process:
        bankload.register(log, cfg.k, seed, cfg.conns)
    else:
        probe("bank", seed, {"k": cfg.k, "conns": cfg.conns, "planned": planned}, log)
    server = bankload.ServerProcess(str(ROOT), _child_env(), log, address, spans_path)
    try:
        reply = _one_request(address, b"PING\n")
    except OSError as exc:
        server.kill()
        raise RuntimeError(f"server unreachable: {exc}") from exc
    elapsed = time.perf_counter() - start
    outcome.check(reply == "ERROR bad-request", f"warm-up line answered {reply!r}")
    return elapsed, server, log


def _one_request(address: str, line: bytes) -> str:
    import socket

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(address)
        sock.sendall(line)
        with sock.makefile("rb") as reader:
            return reader.readline().decode("ascii", errors="replace").rstrip("\n")


@dataclasses.dataclass
class LoopResult:
    sent: int
    answered: int
    wall_s: float
    latencies: list[float]  # sorted round trips, raw seconds
    slowness: float  # CPU slowness around the loop, see calibrate
    echo: list[float]  # sorted echo round trips around the loop, see calibrate
    kinds: Counter  # expected responses by bankload.response_kind

    def echo_slowness(self) -> float:
        """The echo's typical round trip over the reference: the mean of its
        fastest 90%. The echo runs 0.1 s around a loop of about a second, so
        one stall of another tenant would weigh ten times as much in the
        echo's plain mean as in the loop."""
        typical = self.echo[:max(1, len(self.echo) * 9 // 10)]
        return statistics.fmean(typical) / calibrate.REFERENCE_ECHO_S

    def normalized_rate(self) -> float:
        """Answered requests over the loop's wall time, every stall included."""
        return self.answered / self.wall_s * self.echo_slowness()

    def normalized_latency(self, q: float) -> float:
        return _percentile(self.latencies, q) / self.echo_slowness()


def _drive(address: str, streams, requests: int, deadline_s: float,
           echo: calibrate.EchoProbe, outcome: Outcome) -> LoopResult:
    import bankload

    slowness, trips = calibrate.cpu_slowness(), echo.round_trips()
    results = bankload.run_clients(address, streams, requests, deadline_s)
    slowness = (slowness + calibrate.cpu_slowness()) / 2
    trips += echo.round_trips()
    outcome.attempted += sum(r.sent for r in results)
    for r in results:
        if r.failed:
            outcome.fail("; ".join(r.mismatches) or "wrong responses", r.failed)
    unsent = requests * len(streams) - sum(r.sent for r in results)
    outcome.check(unsent == 0, f"{unsent} requests not sent within {deadline_s:.0f} s")
    wall = max(r.end for r in results) - min(r.start for r in results)
    latencies = sorted(x for r in results for x in r.latencies)
    kinds = sum((r.kinds for r in results), Counter())
    return LoopResult(sum(r.sent for r in results), sum(r.answered for r in results), wall,
                      latencies, slowness, sorted(trips), kinds)


def _stop(server, outcome: Outcome) -> None:
    code = server.stop()
    outcome.check(code == 0, f"server exited with {code}: {server.stderr.decode(errors='replace')}")


def _recover(log: str, streams, outcome: Outcome) -> tuple[float, int]:
    import bankload

    elapsed, records, problems = bankload.check_recovery(log, streams)
    outcome.check(not problems, "; ".join(problems))
    return elapsed, records


def _percentile(sorted_values, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _response_shares(loops: list[LoopResult]) -> dict[str, float]:
    totals = sum((loop.kinds for loop in loops), Counter())
    sent = sum(totals.values())
    return {kind: count / sent for kind, count in sorted(totals.items())}


def run_bank_workload(seed: int, seconds: float, trace: bool, outcome: Outcome, info: dict,
                      cfg: BankConfig = BankConfig(),
                      setup_repeats: int = BANK_SETUP_REPEATS) -> dict:
    import bankload

    work = WORK_DIR / f"bank-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    address = os.path.relpath(work / "bank.sock", ROOT)
    server = echo = None
    try:
        echo = calibrate.EchoProbe(os.path.relpath(work, ROOT))
        if not trace:
            # Segments of a fixed request count, each with its own CPU and
            # echo readings; the metrics are medians over segments.
            segments = max(1, round(seconds))
            per_segment = max(1, cfg.planned(round(cfg.rate * seconds)) // segments)
            planned = per_segment * segments

            def setup(rep: int) -> float:
                nonlocal server, log
                if server is not None:
                    _stop(server, outcome)
                    server = None
                elapsed, server, log = _bank_setup(work, f"setup{rep}", seed, cfg, planned,
                                                   address, outcome)
                return elapsed

            log = ""
            setups, setup_s = timed_setups(setup_repeats, setup)
            streams = [bankload.RequestStream(seed, c, cfg.k, planned) for c in range(cfg.conns)]
            loops = [_drive(address, streams, per_segment, LOOP_DEADLINE_S / segments, echo,
                            outcome) for _ in range(segments)]
            rss_kb = server.peak_rss_kb()
            _stop(server, outcome)
            server = None
            recover_s, records = _recover(log, streams, outcome)
            latencies = sorted(x for loop in loops for x in loop.latencies)
            info["requests"] = {"per_connection": planned, "segments": segments,
                                "sent": sum(loop.sent for loop in loops),
                                "latency_samples": len(latencies)}
            info["responses"] = _response_shares(loops)
            info["raw"] = {"setup_s": statistics.median(setups),
                           "requests_per_s": statistics.median(loop.answered / loop.wall_s
                                                               for loop in loops),
                           "latency_p50_ms": _percentile(latencies, 0.5) * 1e3,
                           "latency_p99_ms": _percentile(latencies, 0.99) * 1e3,
                           "segment_requests_per_s": [loop.answered / loop.wall_s
                                                      for loop in loops],
                           "echo_slowness": [loop.echo_slowness() for loop in loops],
                           "slowness": [loop.slowness for loop in loops],
                           "recover_s": recover_s, "log_records": records}
            return {
                "setup_s": setup_s,
                "throughput_per_s": statistics.median(loop.normalized_rate() for loop in loops),
                "latency_p50_ms": statistics.median(loop.normalized_latency(0.5)
                                                    for loop in loops) * 1e3,
                "peak_rss_mb": rss_kb * 1024 / 1e6,
            }

        import tracer as tracing

        planned = cfg.planned(cfg.traced_requests)
        # Phase A, untraced: the reference for the tracing overhead and the p99.
        _, server, _ = _bank_setup(work, "plain", seed, cfg, planned, address, outcome,
                                   in_process=True)
        streams = [bankload.RequestStream(seed, c, cfg.k, planned) for c in range(cfg.conns)]
        plain = _drive(address, streams, planned, LOOP_DEADLINE_S, echo, outcome)
        _stop(server, outcome)
        server = None

        # Phase B, traced: the same requests against a fresh log and a traced server.
        # The benchmark process is traced while it registers and recovers, not
        # while it calibrates and drives the connections.
        tr = tracing.Tracer()
        spans_path = str(work / "server-spans.json")
        tr.install()
        try:
            _, server, log = _bank_setup(work, "traced", seed, cfg, planned, address, outcome,
                                         spans_path=spans_path, in_process=True)
        finally:
            tr.uninstall()
        registered_bytes = os.path.getsize(log)
        streams = [bankload.RequestStream(seed, c, cfg.k, planned) for c in range(cfg.conns)]
        traced = _drive(address, streams, planned, LOOP_DEADLINE_S, echo, outcome)
        _stop(server, outcome)
        server = None
        log_bytes = os.path.getsize(log) - registered_bytes
        tr.install()
        try:
            recover_s, records = _recover(log, streams, outcome)
        finally:
            tr.uninstall()
        with open(spans_path, encoding="ascii") as fh:
            server_trace = json.load(fh)
        server_summary = tracing.summarize(server_trace["spans"])
        summary = _merge(server_summary, tracing.summarize(tr.spans))
        missing = tracing.missing_boundaries("bank", summary)
        outcome.check(not missing, f"traced run recorded no call at {missing}")
        _dump_spans("bank", seed, {"benchmark": tr.document(), "server": server_trace})
        info["responses"] = _response_shares([traced])
        handled = server_summary.get("bank.handle_line", {"calls": 0, "total_s": 0.0})
        bank_extra = {
            "bank.fsync_per_request":
                _ratio(server_summary.get("bank.fsync", {}).get("calls", 0), handled["calls"]),
            "bank.log_bytes_per_request": _ratio(log_bytes, traced.answered),
            "bank.server_share": _ratio(handled["total_s"], sum(traced.latencies)),
            "bank.recover_s": recover_s / traced.slowness,
            "bank.recover.records_per_s": _ratio(records, recover_s) * traced.slowness,
            "bank.latency_p99_ms": plain.normalized_latency(0.99) * 1e3,
        }
        overhead = plain.normalized_rate() / traced.normalized_rate()
        return layer_metrics(summary, tr.counts, len(tr.swap_inputs), overhead, bank_extra,
                             traced.slowness)
    finally:
        if server is not None:
            server.kill()
        if echo is not None:
            echo.close()
        shutil.rmtree(work, ignore_errors=True)


# -- per-layer metrics ------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _merge(*summaries: dict) -> dict:
    out: dict = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
    return out


def layer_metrics(summary: dict, counts: dict, distinct_swap_inputs: int, overhead: float,
                  bank_extra: dict, slowness: float) -> dict:
    """Per-layer values; span times are normalised by the CPU slowness of the traced phase.

    ``bank_extra`` holds the bank's client-side and recovery values, already normalised.
    """
    def span(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def layer(prefix: str, key: str) -> float:
        return sum(row[key] for name, row in summary.items() if name.startswith(prefix + "."))

    values = {}
    for prefix in ("core", "audit", "scheme", "adversary", "stats"):
        values[f"{prefix}.calls"] = layer(prefix, "calls")
        values[f"{prefix}.self_s"] = layer(prefix, "self_s")
    for fn in ("swap_test", "measure_register", "reduced_density", "swap_probability",
               "swap_project", "random_state"):
        values[f"core.{fn}.self_s"] = span(f"core.{fn}", "self_s")
    values["core.swap_test.distinct_input_ratio"] = _ratio(distinct_swap_inputs,
                                                          span("core.swap_test", "calls"))
    values["scheme.btest.self_s"] = span("scheme.btest", "self_s")
    values["scheme.btest.reports_per_call"] = _ratio(counts.get("scheme.btest", 0),
                                                     span("scheme.btest", "calls"))
    values["scheme.secret_codec.self_s"] = (span("scheme.to_hex", "self_s")
                                            + span("scheme.from_hex", "self_s"))
    values["adversary.run_forgery.submissions_per_call"] = _ratio(
        counts.get("adversary.run_forgery", 0), span("adversary.run_forgery", "calls"))
    values["harness.self_s"] = layer("harness", "self_s")
    values["bank.handle_line.calls"] = span("bank.handle_line", "calls")
    values["bank.handle_line.self_s"] = span("bank.handle_line", "self_s")
    values["bank.fsync.self_s"] = span("bank.fsync", "self_s")
    for name in ("bank.fsync_per_request", "bank.log_bytes_per_request", "bank.server_share",
                 "bank.recover_s", "bank.recover.records_per_s", "bank.latency_p99_ms"):
        values[name] = bank_extra.get(name, 0.0)
    values["trace.overhead_ratio"] = overhead
    for name, unit in PER_LAYER.items():
        if unit == "s" and name not in bank_extra:
            values[name] /= slowness
    return values


def _dump_spans(workload: str, seed: int, documents: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    for label, document in documents.items():
        path = OUT_DIR / f"{workload}-seed{seed}-{label}-spans.json"
        path.write_text(json.dumps(document), encoding="ascii")


# -- entry point -------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """Run one workload; returns (result object, exit code)."""
    outcome = Outcome()
    info: dict = {"workload": workload, "trace": int(trace)}
    if workload == "bank":
        values = run_bank_workload(seed, seconds, trace, outcome, info)
    else:
        values = run_scenario_workload(workload, seed, seconds, trace, outcome, info)
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    if outcome.problems:
        info["problems"] = outcome.problems
    print(json.dumps({"env": environment(seed, WORK_DIR)}))
    print(json.dumps({"info": info}))
    for name, metric in metrics.items():
        print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"{workload}: failed_ratio = {_ratio(outcome.failed, outcome.attempted):.6g} "
          f"({outcome.failed} of {outcome.attempted} checks)", file=sys.stderr)
    result = {"correct": outcome.failed == 0, "attempted": max(outcome.attempted, 1),
              "failed": outcome.failed, "metrics": metrics}
    return result, 0 if outcome.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one summary line at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write(proc.stdout)
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    summary["attempted"] = max(summary["attempted"], 1)
    print(json.dumps(summary))
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the set-up probe a run starts in a fresh interpreter.
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--probe-config", default="{}", help=argparse.SUPPRESS)
    parser.add_argument("--probe-log", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # A terminated run still stops the server it started (``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "qtoken" / "__init__.py").is_file():
        print(f"no qtoken sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)
    if args.probe:
        return probe_main(args.probe, args.seed, json.loads(args.probe_config), args.probe_log)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result, code = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())

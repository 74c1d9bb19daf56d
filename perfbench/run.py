"""End-to-end secure-view benchmark: one run of one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload small_cold_tcp --seed 1 --seconds 20 --trace 0

Each run launches fresh processes: the workload's client (``client.py``)
and, for the socket workloads, a ``repro serve`` process through
``serve.py`` on a fresh port.  With two or more CPUs the server is pinned
to one CPU and the client to another (``small_cold_tcp``: both to one
CPU).  Set-up (launch until the first view can be submitted) is repeated
at least ``SETUPS`` times with fresh processes and its median reported;
the last set-up goes on to the timed loop, except in ``small_cold_tcp``,
where launches serve equal episodes of views until the episodes have
measured ``--seconds``.
Every time metric is scaled to a reference host by a short host-speed
probe taken right before the set-up or view it scales (see
``metrics.host_factor``); the table also prints the unscaled figures.

Every served view is compared with the in-process ``exact_secure_view``
oracle, and a seeded sample is re-checked for Gamma-privacy.  A human
table goes to standard output, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The exit code is 0 only when every view matched its oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import queue
import re
import secrets
import shutil
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"

sys.path.insert(0, str(HERE))

import metrics  # noqa: E402  (benchmark-local module)

WORKLOADS = ("small_cold_tcp", "large_cold_inproc", "publish_warm_tls")
SERVED = {"small_cold_tcp", "publish_warm_tls"}
#: Fresh-process set-ups per run (at least); setup_s is their median.
SETUPS = 5
#: Workloads run as episodes of this many views, each episode with a
#: fresh server and client (every launch is also one of the set-ups).
#: Per-view latency grows with the structures resident on the server, so
#: only equal episodes give every run the same latency distribution.
EPISODE_VIEWS = {"small_cold_tcp": 24}
#: Workloads whose client and server share one CPU.  A strictly
#: sequential request/reply loop gains nothing from a second CPU, and a
#: wake-up across CPUs on every round trip times the shared host's
#: scheduler rather than the program.
SAME_CPU = {"small_cold_tcp"}
STARTUP_TIMEOUT_S = 90.0
#: Time past --seconds allowed for the oracle checks and the last view.
FINISH_TIMEOUT_S = 120.0
LISTENING = re.compile(r"'tcp', '([^']+)', (\d+)\)")


class Child:
    """A launched process whose standard output is read line by line."""

    def __init__(self, argv: list[str], cpu: int | None, env: dict) -> None:
        def pin() -> None:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})

        self.process = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
            preexec_fn=pin,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str, timeout: float) -> str:
        """The next output line starting with ``prefix``."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"no {prefix!r} line within {timeout:.0f} s")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"process exited with {self.process.wait()} before {prefix!r}"
                )
            if line.startswith(prefix):
                return line

    def peak_rss_kb(self) -> int:
        """The process's peak resident set (VmHWM) while it still runs."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def stop(self, grace: float = 15.0) -> None:
        """Terminate (then kill) the process and wait until it has ended."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.reader.join(timeout=grace)
        self.process.stdout.close()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt-oracle",
        action="store_true",
        help="alter one oracle answer; the run must then fail",
    )
    return parser.parse_args(argv)


def tls_material(run_dir: pathlib.Path) -> tuple[list[str], list[str]]:
    """Certificate, tenant policy and token files for ``publish_warm_tls``.

    Provisioned once per run, before any timed set-up: operators mint
    certificates ahead of starting a server.
    """
    sys.path.insert(0, str(SOURCE))
    from repro.service.security import generate_self_signed_cert

    from workloads import TENANTS

    cert, key = generate_self_signed_cert(run_dir)
    tokens = {name: f"{name}-{secrets.token_hex(16)}" for name, _ in TENANTS}
    policy = {
        "tenants": {
            name: {"token": tokens[name], "weight": weight}
            for name, weight in TENANTS
        }
    }
    (run_dir / "policy.json").write_text(json.dumps(policy), encoding="utf-8")
    (run_dir / "tokens.json").write_text(json.dumps(tokens), encoding="utf-8")
    server = ["--tls-cert", str(cert), "--tls-key", str(key),
              "--policy", str(run_dir / "policy.json")]
    client = ["--tls-ca", str(cert), "--tokens", str(run_dir / "tokens.json")]
    return server, client


def launch(args, workload_args: tuple[list[str], list[str]], cpus: tuple, env: dict,
           run_dir: pathlib.Path, number: int, timed: bool) -> dict:
    """One fresh set-up (server, where there is one, and client).

    ``workload_args`` are the server's and the client's extra arguments.
    A timed launch goes on to run the client's loop; the returned dict
    holds the set-up time and the host factor probed just before it and,
    for a timed launch, the client's result (with the server's spans and
    peak resident set).
    """
    client_cpu, server_cpu = cpus
    probe_cpus = sorted({cpu for cpu in cpus if cpu is not None})
    if args.workload not in SERVED:
        probe_cpus = probe_cpus[:1]
    out = run_dir / f"result-{number}.json"
    server_trace = run_dir / f"server-spans-{number}.json"
    server = client = None
    factor = metrics.host_factor(probe_cpus)
    launched = time.monotonic()
    try:
        port: list[str] = []
        if args.workload in SERVED:
            trace = ["--trace-out", str(server_trace)] if args.trace and timed else []
            server = Child(
                [sys.executable, str(HERE / "serve.py"), *trace, "--",
                 "--port", "0", *workload_args[0]],
                server_cpu,
                env,
            )
            listening = server.expect("gamma server listening", STARTUP_TIMEOUT_S)
            port = ["--port", LISTENING.search(listening).group(2)]
        client = Child(
            [sys.executable, str(HERE / "client.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--out", str(out),
             "--probe-cpus", ",".join(map(str, probe_cpus)),
             *port, *workload_args[1],
             *(["--trace"] if args.trace else []),
             *([] if timed else ["--setup-only"]),
             *(["--corrupt-oracle"] if args.corrupt_oracle else [])],
            client_cpu,
            env,
        )
        ready = client.expect("READY", STARTUP_TIMEOUT_S)
        outcome = {"setup": (float(ready.split()[1]) - launched, factor)}
        if timed:
            client.expect("DONE", args.seconds + FINISH_TIMEOUT_S)
        if client.process.wait(timeout=FINISH_TIMEOUT_S) != 0:
            raise RuntimeError(f"client exited with {client.process.returncode}")
        if timed:
            outcome["server_rss_kb"] = server.peak_rss_kb() if server is not None else 0
    finally:
        if client is not None:
            client.stop()
        if server is not None:
            server.stop()
    if timed:
        result = json.loads(out.read_text(encoding="utf-8"))
        if args.trace and args.workload in SERVED:
            result["server_trace"] = json.loads(server_trace.read_text(encoding="utf-8"))
        outcome["result"] = result
    return outcome


def run(args) -> int:
    if not (SOURCE / "repro" / "cli.py").is_file():
        print(f"program source not found under {SOURCE}", file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2 and args.workload in SAME_CPU:
        pinned = (cpus[0], cpus[0])
        pinning = f"client and server on CPU {cpus[0]}"
    elif len(cpus) >= 2:
        pinned = (cpus[0], cpus[1])
        pinning = f"client on CPU {cpus[0]}, " + (
            f"server on CPU {cpus[1]}" if args.workload in SERVED else "no server process"
        )
    else:
        pinned = (None, None)
        pinning = "one CPU available: client and server run unpinned"
    env = dict(os.environ, PYTHONPATH=str(SOURCE), PYTHONUNBUFFERED="1")
    run_dir = ROOT / ".perfbench" / f"run-{os.getpid()}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    episode = EPISODE_VIEWS.get(args.workload)
    try:
        workload_args: tuple[list[str], list[str]] = ([], [])
        if args.workload == "publish_warm_tls":
            workload_args = tls_material(run_dir)
        #: (seconds from launch to ready, host factor probed just before)
        setups: list[tuple[float, float]] = []
        results: list[dict] = []
        server_rss_kb = 0
        measured = 0.0
        while len(setups) < SETUPS or (episode and measured < args.seconds):
            number = len(setups)
            extra: list[str] = []
            if episode:
                # Launches serve equal episodes of the seeded sequence until
                # they have measured --seconds; any set-ups still missing
                # then follow.
                timed = measured < args.seconds
                extra = ["--views", str(episode), "--first-index", str(len(results) * episode)]
            else:
                timed = number == SETUPS - 1
            outcome = launch(
                args, (workload_args[0], workload_args[1] + extra), pinned, env,
                run_dir, number, timed,
            )
            setups.append(outcome["setup"])
            if timed:
                results.append(outcome["result"])
                server_rss_kb = max(server_rss_kb, outcome["server_rss_kb"])
                measured += outcome["result"]["wall_s"]
        result = metrics.merge_results(results)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        span_dump = ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.json"
        span_dump.write_text(
            json.dumps({
                "client": result["trace"]["spans"],
                "server": result.get("server_trace", {}).get("spans", []),
            }),
            encoding="utf-8",
        )

    end_to_end = metrics.end_to_end(result, setups, server_rss_kb)
    print(f"workload {args.workload}, seed {args.seed}, {pinning}")
    print(metrics.format_run(result, setups, end_to_end))
    if args.trace:
        layers, table = metrics.per_layer(result)
        print(table)
        print(f"  span dump (first spans of each process): {span_dump}")
        reported = layers
    else:
        reported = {name: end_to_end[name] for name in metrics.END_TO_END}
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    correct = result["failed"] == 0 and result["attempted"] >= 1
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in reported.items()
        },
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

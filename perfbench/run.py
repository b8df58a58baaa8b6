"""scdselect benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a scdselect checkout; the program is imported from
``src/``. The run generates the workload's inputs from the seed (untimed),
then repeats the workload for about ``--seconds`` seconds and checks every
repetition's outputs.

``--trace 0`` runs each ``scdselect`` command in a fresh child process and
reports the end-to-end metrics (medians over repetitions). ``--trace 1``
runs the same commands in this process through ``scdselect.cli.main``,
alternating untraced and traced repetitions, and reports the per-layer
table; the spans are written to ``perfbench/work/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import glob
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import bench_checks
import bench_trace
from bench_workloads import WORKLOADS

# Exits within the 180 s a run may take, whatever the workload does.
RUN_LIMIT_S = 170.0
# Cold starts measured before the first repetition and after each one.
SETUP_STARTS_PER_REP = 2

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "labels_per_s": "1/s",
    "audio_x_realtime": "x",
    "final_scd_nats": "nats",
}

# Named in the result summary with their units; not in the JSON result line.
SUMMARY_UNITS = {"error_rate": "ratio", "kmeans_inertia_per_frame": "sqdist"}


class CommandFailed(Exception):
    """An ``scdselect`` command exited non-zero or ran out of time."""


def _openblas() -> dict:
    """OpenBLAS build string and thread count of the numpy in use, where it can be read."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    info: dict = {"library": os.path.basename(libs[0]) if libs else None}
    if not libs:
        return info
    handle = ctypes.CDLL(libs[0])
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                info.update(threads=get_threads(), config=get_config().decode())
                return info
    return info


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(root: Path) -> dict:
    """Machine and build record printed with every result."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": _source_digest(root / "src" / "scdselect"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "thread_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "platform": platform.platform(),
    }


class ChildRunner:
    """Runs ``python -m scdselect`` in fresh child processes started by ``bench_spawn.py``.

    Create it before the inputs are generated: the launcher is forked from
    this process while it is still small.
    """

    def __init__(self, root: Path, log: Path, deadline: float):
        pythonpath = str(root / "src")
        if os.environ.get("PYTHONPATH"):
            pythonpath += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=pythonpath)
        self.root = root
        self.log = log
        self.deadline = deadline
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("bench_spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def __enter__(self) -> "ChildRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def measure(self, argv: list[str]) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise CommandFailed(f"no time left to run {argv[:1]}")
        request = {
            "argv": [sys.executable, "-m", "scdselect", *argv],
            "cwd": str(self.root),
            "env": self.env,
            "timeout": timeout,
            "log": str(self.log),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise CommandFailed("the launcher process exited")
        result = json.loads(reply)
        if result["timed_out"]:
            raise CommandFailed(f"{argv[0]} timed out after {timeout:.0f} s")
        if result["exit_code"] != 0:
            tail = self.log.read_bytes()[-400:].decode(errors="replace").strip()
            raise CommandFailed(f"{argv[0]} exited with {result['exit_code']}: {tail}")
        return {name: result[name] for name in ("wall_s", "cpu_s", "peak_rss_mb")}


class InProcessRunner:
    """Runs ``scdselect.cli.main`` in this process, optionally through a tracer."""

    def __init__(self, main):
        self.main = main

    def measure(self, argv: list[str]) -> dict:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                code = self.main(argv)
            except SystemExit as exc:
                code = exc.code
        wall = time.perf_counter() - start
        if code != 0:
            raise CommandFailed(f"{argv[0]} returned {code}")
        return {"wall_s": wall}


def run_repetition(workload, prepared, work: Path, runner) -> tuple[dict, object]:
    """One repetition: summed command timings and the checked outcome."""
    out = work / "out"
    out.mkdir(exist_ok=True)
    timings: list[dict] = []

    def run(argv: list[str]) -> None:
        timings.append(runner.measure(argv))

    outputs = workload.repeat(run, prepared, work, out)
    totals = {"wall_s": sum(t["wall_s"] for t in timings)}
    if "cpu_s" in timings[0]:
        totals["cpu_s"] = sum(t["cpu_s"] for t in timings)
        totals["peak_rss_mb"] = max(t["peak_rss_mb"] for t in timings)
    return totals, outputs


class Attempts:
    """Repetitions of one workload, with their checks and failure count."""

    def __init__(self, workload, prepared, work: Path):
        self.workload = workload
        self.prepared = prepared
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.outcome = None
        self.errors: list[str] = []

    def attempt(self, runner) -> dict | None:
        """Run and check one repetition; its timings, or None when it failed."""
        self.attempted += 1
        try:
            timings, outputs = run_repetition(self.workload, self.prepared, self.work, runner)
            if self.outcome is None:
                self.outcome = self.workload.check(self.prepared, outputs)
            elif outputs != self.outcome.outputs:
                changed = sorted(n for n in outputs if outputs[n] != self.outcome.outputs.get(n))
                raise bench_checks.CheckError(f"outputs differ between repetitions: {changed}")
        except Exception as exc:  # any failure of the program or its outputs fails the repetition
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None
        return timings


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def measure_setup(runner: ChildRunner, attempts: Attempts, starts: int) -> list[float]:
    """Wall times of ``starts`` fresh interpreters running ``scdselect --version``."""
    try:
        return [runner.measure(["--version"])["wall_s"] for _ in range(starts)]
    except CommandFailed as exc:
        attempts.attempted += 1
        attempts.failed += 1
        attempts.errors.append(f"setup: {exc}")
        return []


def measure_end_to_end(workload, prepared, work: Path, runner: ChildRunner, seconds: float, deadline: float):
    attempts = Attempts(workload, prepared, work)
    # Cold starts are spread between the repetitions, so that their median
    # spans the whole run.
    loop_start = time.monotonic()
    setups = measure_setup(runner, attempts, SETUP_STARTS_PER_REP)
    reps: list[dict] = []
    while True:
        rep_start = time.monotonic()
        timings = attempts.attempt(runner)
        if timings is not None:
            reps.append(timings)
        setups += measure_setup(runner, attempts, SETUP_STARTS_PER_REP)
        now = time.monotonic()
        rep_time = now - rep_start
        if now - loop_start + rep_time > seconds or now + 2 * rep_time > deadline:
            break

    walls = [r["wall_s"] for r in reps]
    metrics = {
        "wall_s": _median(walls),
        "cpu_s": _median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "setup_s": _median(setups),
        "labels_per_s": _median([prepared["labels"] / w for w in walls]),
        "audio_x_realtime": _median([prepared["audio_seconds"] / w for w in walls]),
        "final_scd_nats": attempts.outcome.final_scd_nats if attempts.outcome else 0.0,
    }
    extra = {
        "repetitions": len(reps),
        "repetition_wall_s": [round(w, 3) for w in walls],
        "setup_starts": len(setups),
        **(attempts.outcome.extra if attempts.outcome else {}),
    }
    return attempts, metrics, extra


def measure_layers(workload, prepared, work: Path, root: Path, seconds: float, deadline: float):
    attempts = Attempts(workload, prepared, work)
    sys.path.insert(0, str(root / "src"))
    try:
        import scdselect
        from scdselect import cli
    except Exception as exc:  # a program that does not import fails the run
        attempts.attempted = attempts.failed = 1
        attempts.errors.append(f"import: {type(exc).__name__}: {exc}")
        return attempts, {}, {}, []

    instrumentation = bench_trace.Instrumentation(scdselect)
    plain_walls: list[float] = []
    traced: list[tuple[float, list, dict]] = []
    loop_start = time.monotonic()
    pair = 0
    while True:
        pair_start = time.monotonic()
        for traced_turn in ((False, True) if pair % 2 == 0 else (True, False)):
            if not traced_turn:
                timings = attempts.attempt(InProcessRunner(cli.main))
                if timings is not None:
                    plain_walls.append(timings["wall_s"])
                continue
            tracer = bench_trace.Tracer()
            tracer.run_id = pair
            instrumentation.install(tracer)
            try:
                timings = attempts.attempt(InProcessRunner(tracer.wrap("cli.main", cli.main)))
            finally:
                instrumentation.uninstall()
            if timings is not None:
                traced.append((timings["wall_s"], tracer.spans, dict(tracer.counters)))
        pair += 1
        now = time.monotonic()
        pair_time = now - pair_start
        if now - loop_start + pair_time > seconds or now + 2 * pair_time > deadline:
            break

    tables = [bench_trace.layer_table(spans, counters) for _, spans, counters in traced]
    metrics = {name: _median([t[name] for t in tables]) for name in tables[0]} if tables else {}
    traced_wall = _median([wall for wall, _, _ in traced])
    plain_wall = _median(plain_walls)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0) if plain_wall else 0.0
    metrics["trace.spans"] = _median([len(spans) for _, spans, _ in traced])
    extra = {"traced_wall_s": traced_wall, "untraced_wall_s": plain_wall, "pairs": pair}
    spans = [span for _, run_spans, _ in traced for span in run_spans]
    return attempts, metrics, extra, spans


def _prepare(workload, work: Path, seed: int) -> tuple[dict, float]:
    """The workload's generated inputs and the seconds spent making them."""
    start = time.monotonic()
    prepared = workload.prepare(work, seed)
    return prepared, time.monotonic() - start


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "scdselect" / "__init__.py").is_file():
        print(f"error: {root} holds no src/scdselect; run from the root of a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench_dir = root / "perfbench" / "work"
    work = bench_dir / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            prepared, generate_s = _prepare(workload, work, args.seed)
            attempts, metrics, extra, spans = measure_layers(
                workload, prepared, work, root, args.seconds, deadline
            )
            units = bench_trace.PER_LAYER_UNITS
            trace_dir = bench_dir / "traces"
            trace_dir.mkdir(exist_ok=True)
            trace_file = trace_dir / f"{workload.name}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(
                {"workload": workload.name, "seed": args.seed, "table": metrics,
                 "spans": [dataclasses.asdict(span) for span in spans]}
            ))
            extra["trace_file"] = str(trace_file.relative_to(root))
        else:
            with ChildRunner(root, work / "commands.log", deadline) as runner:
                prepared, generate_s = _prepare(workload, work, args.seed)
                attempts, metrics, extra = measure_end_to_end(
                    workload, prepared, work, runner, args.seconds, deadline
                )
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    extra.update(
        error_rate=attempts.failed / max(attempts.attempted, 1),
        generate_s=generate_s,
        total_s=time.monotonic() - started,
    )
    print("env " + json.dumps(environment(root), sort_keys=True))
    print(f"workload {workload.name}: {workload.why}")
    for error in attempts.errors:
        print(f"failure: {error}")
    for name, value in extra.items():
        if name in SUMMARY_UNITS:
            print(f"metric {name} = {value:.6g} {SUMMARY_UNITS[name]}")
        else:
            print(f"info {name} = {value}")
    for name, unit in units.items():
        print(f"metric {name} = {metrics.get(name, 0.0):.6g} {unit}")
    result = {
        "correct": attempts.failed == 0 and attempts.attempted > 0,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except Exception:
        traceback.print_exc()
        raise SystemExit(1)

"""End-to-end benchmark of the TSMO search, the pool and the solve service.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload paper_r1_400 --seed 3
    python3 benchmarks/e2e/run.py --workload serve_durable --trace 1
    python3 benchmarks/e2e/run.py --repeat 10          # spread report
    python3 benchmarks/e2e/run.py --validate           # check BENCHMARK.json

One workload runs per process.  Without ``--workload`` every workload
runs, each in a fresh subprocess.  The last line of a single-workload
run is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics (the end-to-end ones untraced, the per-layer ones with
``--trace 1``), each with its unit.  A failed correctness check exits
with status 1.  See README.md for the workloads and metrics.

A single-workload run is supervised: the workload runs in a child
process in a session of its own, and the supervisor does not exit until
every process of that session (pool workers, resource trackers, set-up
runs) has ended, ending stragglers itself on every way out.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
# Spawned pool workers re-run this module's top level, so everything
# below the path set-up happens under the __main__ guard.
for _path in (str(HERE), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: extra set-up repetitions, each in a fresh interpreter; ``setup_s``
#: is the median of these and the measured run's own set-up.
SETUP_REPEATS = 2
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 240
#: a supervised workload is stopped after this long, so the command
#: always ends within three minutes.
WORKLOAD_TIMEOUT_S = 160
#: how long processes left in the workload's session may take to end by
#: themselves (a resource tracker exits once its last writer is gone)
#: before they are sent SIGTERM, then SIGKILL.
LEFTOVER_GRACE_S = 2.0
PR_SET_CHILD_SUBREAPER = 36

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def validate(spec: dict, known_metrics: dict, known_workloads) -> list[str]:
    """Schema and consistency errors of ``BENCHMARK.json``."""
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errors.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
        return errors
    if SPEC.stat().st_size > 64 * 1024:
        errors.append("BENCHMARK.json exceeds 64 KiB")
    command = spec["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in command)):
        errors.append("command must be a list of 1-32 strings of <= 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in command):
        errors.append("command may not name absolute paths or leave the repo")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errors.append("paths must list 1-16 directories")
    else:
        for path in paths:
            if not (isinstance(path, str) and _PATH.match(path)) or ".." in path.split("/"):
                errors.append(f"bad path {path!r}")
    seconds = spec["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        errors.append("run_seconds must be a whole number from 1 to 60")

    names: list[str] = []

    def check_list(label, items, lo, hi, fields):
        if not (isinstance(items, list) and lo <= len(items) <= hi):
            errors.append(f"{label} must hold {lo}-{hi} entries")
            return []
        for item in items:
            if not isinstance(item, dict) or set(item) != fields:
                errors.append(f"{label} entry {item!r} must have exactly {sorted(fields)}")
                continue
            name = item["name"]
            if not (isinstance(name, str) and _NAME.match(name)):
                errors.append(f"{label}: bad name {name!r}")
            names.append(name)
        return [i for i in items if isinstance(i, dict) and set(i) == fields]

    workloads = check_list("workloads", spec["workloads"], 2, 8, {"name", "why"})
    for w in workloads:
        why = w["why"]
        if not (isinstance(why, str) and why.strip() and "\n" not in why and len(why) <= 200):
            errors.append(f"workload {w['name']}: why must be one line of <= 200 characters")
    declared = {w["name"] for w in workloads}
    if declared != set(known_workloads):
        errors.append(f"workloads {sorted(declared)} != implemented {sorted(known_workloads)}")

    e2e = check_list("end_to_end", spec["end_to_end"], 1, 16, {"name", "unit", "better", "bound"})
    layers = check_list("per_layer", spec["per_layer"], 1, 128, {"name", "unit", "better"})
    for metric in e2e + layers:
        name, unit = metric["name"], metric["unit"]
        if not (isinstance(unit, str) and _UNIT.match(unit)):
            errors.append(f"{name}: bad unit {unit!r}")
        if metric["better"] not in ("lower", "higher"):
            errors.append(f"{name}: better must be 'lower' or 'higher'")
        if known_metrics.get(name) != unit:
            errors.append(f"{name}: the benchmark reports unit {known_metrics.get(name)!r}, not {unit!r}")
    for metric in e2e:
        bound = metric["bound"]
        if not (isinstance(bound, (int, float)) and 0 <= bound <= 0.25):
            errors.append(f"{metric['name']}: bound must be in [0, 0.25]")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("end_to_end must hold setup_s in s, lower is better")
    elif any(m["bound"] > setup[0]["bound"] for m in e2e):
        errors.append("setup_s must carry the largest bound")
    duplicates = {n for n in names if names.count(n) > 1}
    if duplicates:
        errors.append(f"names used more than once: {sorted(duplicates)}")
    return errors


def _last_json(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def _self_command(*args: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), *args]


def _setup_samples(workload: str, seed: int, seconds: float) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            _self_command(
                "--setup-only", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds),
            ),
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
        samples.append(float(_last_json(proc.stdout)["setup_s"]))
    return samples


def _stop_resource_tracker() -> None:
    """Shared memory makes multiprocessing start a resource-tracker
    process; stop it and wait for it, so no process outlives the run."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


class _Interrupted(Exception):
    """SIGTERM or SIGINT reached the supervisor."""


def _raise_interrupted(signum, frame):
    raise _Interrupted(signum)


def _become_subreaper() -> None:
    """Adopt the workload's orphans (Linux), so they can be reaped."""
    import ctypes

    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _session_members(sid: int) -> list[int]:
    """Processes of session ``sid`` that have not ended (zombies have)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _end_session(sid: int, grace_s: float) -> int:
    """Wait until no process of session ``sid`` is left, sending SIGTERM
    once ``grace_s`` has passed and SIGKILL a grace period later.
    Returns how many processes had to be signalled."""
    signals = [signal.SIGTERM, signal.SIGKILL]
    signalled = 0
    deadline = time.monotonic() + grace_s
    while True:
        _reap_orphans()
        left = _session_members(sid)
        if not left:
            return signalled
        if time.monotonic() >= deadline:
            if not signals:
                raise RuntimeError(f"processes {left} of the workload did not end")
            sig = signals.pop(0)
            signalled = max(signalled, len(left))
            for pid in left:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + LEFTOVER_GRACE_S
        time.sleep(0.02)


def supervise(argv: list[str]) -> int:
    """Run one workload in a session of its own and return its exit
    status once every process of that session has ended."""
    _become_subreaper()
    handlers = {
        sig: signal.signal(sig, _raise_interrupted) for sig in (signal.SIGTERM, signal.SIGINT)
    }
    status = 1
    child = None
    finished = False
    try:
        child = subprocess.Popen(
            _self_command(*argv, "--in-session"), cwd=ROOT, start_new_session=True
        )
        status = child.wait(timeout=WORKLOAD_TIMEOUT_S)
        finished = True
    except subprocess.TimeoutExpired:
        print(f"error: the workload did not end within {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
    except _Interrupted as stop:
        status = 128 + stop.args[0]
    finally:
        for sig in handlers:
            signal.signal(sig, signal.SIG_IGN)
        if child is not None:
            # A workload that was cut short is stopped at once.
            signalled = _end_session(child.pid, LEFTOVER_GRACE_S if finished else 0.0)
            if signalled and finished:
                print(f"note: ended {signalled} process(es) the workload left running",
                      file=sys.stderr)
        for sig, handler in handlers.items():
            signal.signal(sig, handler)
    return status


def run_one(args, spec) -> int:
    from workloads import METRICS, run_setup_only, run_workload

    marks: dict[str, float] = {}
    if args.setup_only:
        try:
            run_setup_only(args.workload, args.seed, args.seconds, marks)
        finally:
            _stop_resource_tracker()
        print(json.dumps({"setup_s": marks["setup_done"] - _T0}))
        return 0
    trace = args.trace == 1
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds, trace, marks)
    finally:
        _stop_resource_tracker()
    if not trace:
        samples = [marks["setup_done"] - _T0] + _setup_samples(args.workload, args.seed, args.seconds)
        outcome.metrics["setup_s"] = statistics.median(samples)
        outcome.notes.append(
            "  setup samples " + ", ".join(f"{s:.3f} s" for s in samples)
        )
    wanted = [m["name"] for m in spec["end_to_end" if not trace else "per_layer"]]
    missing = [name for name in wanted if name not in outcome.metrics]
    if missing:
        outcome.errors.append(f"metrics not measured: {missing}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for line in outcome.notes:
        print(line)
    for name in wanted:
        if name in outcome.metrics:
            print(f"  {name:<40} {outcome.metrics[name]:>16.6g} {METRICS[name]}")
    print(f"  front_digest {outcome.digest}")
    for error in outcome.errors:
        print(f"  CHECK FAILED: {error}")
    correct = not outcome.errors and outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": METRICS[name]}
                    for name in wanted
                    if name in outcome.metrics
                },
            }
        )
    )
    return 0 if correct else 1


def run_each(args, spec) -> int:
    """Every workload once, each in a fresh interpreter."""
    status = 0
    for w in spec["workloads"]:
        proc = subprocess.run(
            _self_command(
                "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ),
            cwd=ROOT, timeout=RUN_TIMEOUT_S,
        )
        status = status or proc.returncode
    return status


def spread_report(args, spec) -> int:
    """Run each workload ``--repeat`` times with consecutive seeds
    (interleaved) and print median, quartiles and the quartile spread
    as a share of the median, next to each metric's bound."""
    names = [w["name"] for w in spec["workloads"]] if args.workload is None else [args.workload]
    metrics = spec["end_to_end" if args.trace == 0 else "per_layer"]
    values: dict[tuple[str, str], list[float]] = {}
    status = 0
    for r in range(args.repeat):
        for name in names:
            proc = subprocess.run(
                _self_command(
                    "--workload", name, "--seed", str(args.seed + r),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                ),
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            try:
                result = _last_json(proc.stdout)
            except ValueError:
                print(f"{name} seed {args.seed + r}: no result\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            if proc.returncode != 0 or not result["correct"]:
                status = 1
            for metric, entry in result["metrics"].items():
                values.setdefault((metric, name), []).append(entry["value"])
            print(f"run {r} {name}: correct={result['correct']} failed={result['failed']}", flush=True)
    print(f"{'metric':<40} {'workload':<14} {'n':>3} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in metrics:
        for name in names:
            sample = values.get((metric["name"], name), [])
            if len(sample) < 2:
                continue
            q1, med, q3 = statistics.quantiles(sample, n=4)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = metric.get("bound")
            flag = ""
            if bound is not None and metric["name"] != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print(
                f"{metric['name']:<40} {name:<14} {len(sample):>3} {q1:>12.6g} {med:>12.6g}"
                f" {q3:>12.6g} {spread:>8.3f} {'' if bound is None else bound:>6}{flag}"
            )
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--repeat", type=int, default=0, help="spread report over N seeds")
    parser.add_argument("--validate", action="store_true", help="check BENCHMARK.json")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--in-session", action="store_true", help=argparse.SUPPRESS)
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    if args.traced:
        args.trace = 1

    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        print(
            f"error: run from a checkout of the repository; {SRC / 'repro'} "
            f"or {SPEC} is missing",
            file=sys.stderr,
        )
        return 2
    supervised = args.in_session or args.setup_only
    if args.workload is not None and not (args.repeat or args.validate or supervised):
        return supervise(argv)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    from workloads import METRICS, WORKLOADS

    if args.validate:
        errors = validate(spec, METRICS, WORKLOADS)
        for error in errors:
            print(f"BENCHMARK.json: {error}")
        if not errors:
            print("BENCHMARK.json: ok")
        return 1 if errors else 0
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.repeat:
        return spread_report(args, spec)
    if args.workload is None:
        return run_each(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())

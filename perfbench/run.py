"""ttlab benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ttlab is imported from ./src.  The
last line of stdout is the result, a JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; a readable summary goes to stderr, and
the full record (machine, every operation, metrics) to
perfbench/out/<workload>-trace<t>.json.

Set-up (`import ttlab.cli` and the seed tracks) is timed in fresh
interpreters.  The parent then sets up once and forks one child per
operation, one at a time, so no cache warmed by an operation serves the
next.  An operation that raises, misses its deadline or fails its output
check counts as failed.  With --trace 1, operations alternate between
untraced and traced, and the metrics are the per-layer figures of the
traced ones plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
from workloads import SETUP_CODE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 8
DEADLINE_S = 60.0


def machine_record() -> dict:
    git = None
    if (ROOT / ".git").exists():   # else git would search the parent dirs
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            git = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ttlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "python": sys.version.split()[0],
        "git_revision": git,
        "source_sha256": digest.hexdigest(),
    }


def time_setup(cpu: int) -> float:
    """Seconds from starting a fresh interpreter on `cpu` until ttlab is
    ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = SETUP_CODE + "print('ready', flush=True)\n"
    t = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu})
                          ) as proc:
        try:
            # wait on the pipe, not by polling, so the time has no 50 ms steps
            if select.select([proc.stdout], [], [], DEADLINE_S)[0]:
                took = time.perf_counter() - t
                line = proc.stdout.readline()
            else:
                line = b""
        finally:
            proc.kill()
    if line != b"ready\n":
        raise RuntimeError("ttlab set-up failed in a fresh interpreter")
    return took


def run_child(fn, deadline_s: float,
              cpu: int | None = None) -> tuple[dict, float]:
    """Run fn() in a forked child, on `cpu` if given; return (its JSON
    result, peak RSS in MB).

    The result is {"error": ...} when fn raised or the deadline passed; the
    child is then killed.  The child is always reaped before returning.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            if cpu is not None:
                os.sched_setaffinity(0, {cpu})
            try:
                data = {"ok": fn()}
            except BaseException:
                data = {"error": traceback.format_exc()}
            with os.fdopen(w, "wb") as fh:
                fh.write(json.dumps(data).encode())
        finally:
            os._exit(0)
    os.close(w)
    chunks = []
    timed_out = False
    end = time.monotonic() + deadline_s
    try:
        while True:
            left = end - time.monotonic()
            if left <= 0 or not select.select([r], [], [], left)[0]:
                timed_out = True
                break
            chunk = os.read(r, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(r)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024
    if timed_out:
        return {"error": f"deadline of {deadline_s:g} s passed"}, rss_mb
    try:
        return json.loads(b"".join(chunks)), rss_mb
    except json.JSONDecodeError:
        return {"error": f"child ended with status {status} and no result"}, rss_mb


def one_op(workload, op_seed: int, traced: bool, op_id: int, spans_path: str):
    """The body of an operation's child process."""
    op = workload.prepare(random.Random(op_seed))
    rec = None
    if traced:
        rec = spans.Recorder()
        spans.install(rec)
        op = rec.root(op)
    t = time.perf_counter()
    result = op()
    wall = time.perf_counter() - t
    out = {"wall_s": wall, "output": workload.render(result)}
    if rec is not None:
        out["layers"] = rec.summary()
        out["perron_iterations"] = rec.perron_iterations
        rec.write(spans_path, op_id)
    return out


def median(xs):
    return statistics.median(xs) if xs else 0.0


def per_cpu_median(samples) -> float:
    """Mean over CPUs of the median of the (cpu, seconds) samples on each.

    The CPUs of a shared VM run at different speeds at any one time; a plain
    median of samples rotated over them jumps between the fast and the slow
    CPU's figure, while this weighs each CPU equally.
    """
    by_cpu: dict[int, list[float]] = {}
    for cpu, x in samples:
        by_cpu.setdefault(cpu, []).append(x)
    return statistics.fmean(median(xs) for xs in by_cpu.values()) if by_cpu else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ttlab" / "__init__.py").is_file():
        print(f"error: no ttlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    machine = machine_record()
    # Other tenants slow each CPU of a small VM in turns, largely
    # independently, so set-up probes and operations rotate over the usable
    # CPUs; in traced runs each untraced/traced pair shares one CPU.
    cpus = sorted(os.sched_getaffinity(0))
    setup = [] if args.trace else [
        (cpu, time_setup(cpu))
        for cpu in (cpus[i % len(cpus)] for i in range(SETUP_PROBES))]
    exec(SETUP_CODE, {})

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{wl.name}.spans"
    if args.trace:
        spans_path.unlink(missing_ok=True)
    expected = None
    if wl.expected is not None:
        got, _ = run_child(wl.expected, DEADLINE_S)
        if "error" in got:
            print(f"error: reference for {wl.name} failed:\n{got['error']}",
                  file=sys.stderr)
            return 1
        expected = got["ok"]

    rng = random.Random(args.seed)
    ops = []
    good_output = None
    t0 = time.monotonic()
    # start another operation only if it should end within --seconds
    while (not ops or (args.trace and len(ops) < 2)
           or time.monotonic() - t0 + ops[-1]["wall_s"] <= args.seconds):
        k = len(ops)
        traced = bool(args.trace) and k % 2 == 1
        op_seed = rng.randrange(2 ** 32)
        cpu = cpus[(k // 2 if args.trace else k) % len(cpus)]
        got, rss = run_child(
            lambda: one_op(wl, op_seed, traced, k, str(spans_path)),
            DEADLINE_S, cpu)
        rec = {"op": k, "traced": traced, "cpu": cpu, "peak_rss_mb": rss}
        if "error" in got:
            rec.update(wall_s=DEADLINE_S, problems=[got["error"]])
        else:
            res = got["ok"]
            rec.update(wall_s=res["wall_s"],
                       problems=wl.check(res["output"], expected))
            for key in ("layers", "perron_iterations"):
                if key in res:
                    rec[key] = res[key]
            if not rec["problems"] and good_output is None:
                good_output = res["output"]
        ops.append(rec)
        for p in rec["problems"]:
            print(f"op {k}: {p}", file=sys.stderr)

    # negative control: the checker must reject a corrupted good output
    control_rejected = bool(
        good_output is not None and wl.check(wl.corrupt(good_output), expected))
    if good_output is not None and not control_rejected:
        print("error: the checker accepted a corrupted output", file=sys.stderr)

    failed = sum(1 for o in ops if o["problems"])
    plain = [o for o in ops if not o["traced"]]
    traced_ops = [o for o in ops if o["traced"]]
    if args.trace:
        layered = [o["layers"] for o in traced_ops if "layers" in o]
        metrics = {key: median([lay[key] for lay in layered])
                   for key in spans.METRIC_UNITS}
        traced_s = per_cpu_median([(o["cpu"], o["wall_s"]) for o in traced_ops])
        plain_s = per_cpu_median([(o["cpu"], o["wall_s"]) for o in plain])
        metrics["trace.op_s"] = traced_s
        metrics["trace.overhead_ratio"] = traced_s / plain_s - 1 if plain_s else 0.0
        units = {**spans.METRIC_UNITS, "trace.op_s": "s",
                 "trace.overhead_ratio": "ratio"}
    else:
        metrics = {
            "op_s": per_cpu_median([(o["cpu"], o["wall_s"]) for o in ops]),
            "setup_s": per_cpu_median(setup),
            "peak_rss_mb": max(o["peak_rss_mb"] for o in ops),
            "ok_ratio": (len(ops) - failed) / len(ops),
        }
        units = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "ok_ratio": "ratio"}

    machine["loadavg_after"] = os.getloadavg()
    correct = failed == 0 and control_rejected
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "deadline_s": DEADLINE_S, "machine": machine,
        "setup_samples_s": setup, "control_rejected": control_rejected,
        "ops": ops, "metrics": metrics,
        "spans_file": str(spans_path.relative_to(ROOT)) if args.trace else None,
    }
    (OUT / f"{wl.name}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"{wl.name} seed {args.seed}: {len(ops)} ops, {failed} failed, "
          f"nproc {machine['nproc']}, load {machine['loadavg_before'][0]:.2f}"
          f" -> {machine['loadavg_after'][0]:.2f}", file=sys.stderr)
    for key, value in metrics.items():
        print(f"  {key:34s} {value:.6g} {units[key]}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

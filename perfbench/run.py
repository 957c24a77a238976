#!/usr/bin/env python3
"""hieram benchmark: the CLI run as a user runs it, one child process at a time.

    python3 perfbench/run.py --workload localize-n1024 --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/`` of the
same checkout.  The workload's config is written from ``--seed``, so the
program only sees generated inputs.  Invocations of ``hieram <subcommand>``
then run back to back, in a closed loop with one client: a new one starts
while less than ``--seconds`` have passed, and at least two run so that every
run has a repeat.  Outside the timed region the first output is checked by
the workload's oracle and every repeat must be byte-identical to it.

``--trace 0`` reports the end-to-end metrics: the median wall time, set-up
time (spawn to entry into the subcommand runner; several extra set-up probes
run first) and peak RSS of the children.  ``--trace 1`` alternates plain and
traced invocations and reports the per-layer metrics of ``spans.py``, the
CPU time of the plain ones and the tracing overhead.  The metric names and
units are those of BENCHMARK.json.  The last line of stdout is the result
object; the lines before it hold the provenance and every sample.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launch.py"
PROBES = 8  # set-up-only launches per untraced run, on top of each invocation's own
RUN_LIMIT_S = 170.0  # a run must end within 180 s
ORACLE_RESERVE_S = 25.0
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402


@dataclass
class Invocation:
    mode: str
    rc: int
    wall_s: float
    setup_s: float | None
    peak_rss_mb: float
    cpu_s: float
    out: Path
    log: Path
    record: dict


def spawn(work: Path, tag: str, mode: str, cli_argv: list[str], timeout: float) -> Invocation:
    """Run one child to completion; its rusage comes from wait4 on that child alone."""
    out = work / f"out-{tag}"
    record_path, log_path = work / f"record-{tag}.json", work / f"log-{tag}.txt"
    cmd = [sys.executable, str(LAUNCHER), str(record_path), mode, *cli_argv, "--out", str(out)]
    with open(log_path, "wb") as log:
        start = time.monotonic()
        child = subprocess.Popen(cmd, cwd=work, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 0.0), child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        end = time.monotonic()
    child.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    return Invocation(
        mode=mode,
        rc=child.returncode,
        wall_s=end - start,
        setup_s=record["entered"] - start if "entered" in record else None,
        peak_rss_mb=usage.ru_maxrss / 1024,
        cpu_s=usage.ru_utime + usage.ru_stime,
        out=out,
        log=log_path,
        record=record,
    )


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        filecmp.cmp(a / n, b / n, shallow=False) for n in names
    )


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it (needs 11 samples)."""
    if len(samples) < 11:
        return None
    k = len(samples) - 11
    return {"percentile": 100.0 * (k + 1) / len(samples), "value": sorted(samples)[k]}


def commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(name: str, seed: int, threads: int | None) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hieram").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "threads": threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "commit": commit(),
        "src_sha256": digest.hexdigest(),
    }


def check(wl, cfg: dict, runs: list[Invocation], seed: int) -> tuple[list[str], int]:
    """Oracle problems of the first output, and the number of failed invocations."""
    import numpy as np

    ref = runs[0]
    if ref.rc != 0:
        problems = [f"first invocation exited {ref.rc}: {ref.log.read_text()[-2000:]}"]
    else:
        try:
            problems = wl.oracle(cfg, ref.out, np.random.default_rng(seed))
        except Exception:  # a malformed output is a failed run, not a crash
            problems = ["oracle raised:\n" + traceback.format_exc()]
    failed = sum(
        1
        for inv in runs
        if inv.rc != 0 or problems or (inv is not ref and not same_files(ref.out, inv.out))
    )
    return problems, failed


def measure(args, wl, work: Path, started: float) -> dict:
    seed = args.seed % 2**64
    cfg = wl.config(seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(cfg))
    cli_argv = [wl.subcommand, "--config", str(config_path)]
    if wl.threads is not None:
        cli_argv += ["--threads", str(wl.threads)]
    deadline = started + RUN_LIMIT_S - ORACLE_RESERVE_S

    probes = []
    if not args.trace:
        for n in range(PROBES):
            probes.append(spawn(work, f"probe{n}", "probe", cli_argv, deadline - time.monotonic()))

    runs: list[Invocation] = []
    loop_start = time.monotonic()
    while time.monotonic() < deadline and (
        len(runs) < 2 or time.monotonic() - loop_start < args.seconds
    ):
        mode = "trace" if args.trace and len(runs) % 2 else "run"
        runs.append(spawn(work, str(len(runs)), mode, cli_argv, deadline - time.monotonic()))

    problems, failed = check(wl, cfg, runs, seed)
    plain = [r for r in runs if r.mode == "run"]
    samples = {
        "wall_s": [r.wall_s for r in plain],
        "setup_s": [r.setup_s for r in probes + plain if r.setup_s is not None],
        "peak_rss_mb": [r.peak_rss_mb for r in plain],
        "cpu_s": [r.cpu_s for r in plain],
    }
    if args.trace:
        import spans

        traced = [r for r in runs if r.mode == "trace" and "spans" in r.record]
        layers = [spans.layer_metrics(r.record["spans"]) for r in traced]
        samples["traced_wall_s"] = [r.wall_s for r in traced]
        metrics = {name: median(m[name] for m in layers) for name in spans.layer_metrics([])}
        metrics["cli.cpu_s"] = median(samples["cpu_s"])
        metrics["trace.overhead_s"] = median(samples["traced_wall_s"]) - median(samples["wall_s"])
    else:
        metrics = {name: median(values) for name, values in samples.items() if name != "cpu_s"}
    return {
        "metrics": metrics,
        "samples": samples,
        "wall_s_tail": tail(samples["wall_s"]),
        "attempted": len(runs),
        "failed": failed,
        "failed_frac": failed / len(runs),
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hieram" / "cli.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"no hieram sources or BENCHMARK.json under {ROOT}\n")
        return 2
    spec = json.loads(spec_path.read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, wl, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(result["metrics"]) != set(declared):
        sys.stderr.write(
            f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json {sorted(declared)}\n"
        )
        return 1
    print(json.dumps({"provenance": provenance(args.workload, args.seed, wl.threads)}))
    print(json.dumps(result))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": float(result["metrics"][name]), "unit": unit}
                    for name, unit in declared.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""The one command of the canonical benchmark.

::

    PYTHONPATH=src python benchmarks/suite/run.py \\
        --workload <name|all> --seed <int> [--seconds <n>] \\
        [--trace [0|1|both]] [--out <file>] [--smoke]
    python benchmarks/suite/run.py --compare A.json B.json

Every workload runs in a subprocess of its own (fresh RSS; the
program's module-global ``*_stats()`` singletons cannot leak between
workloads) whose environment is pinned before ``repro`` is imported:
serial executor and planner, caches off, segmented scatter, one BLAS
thread.  ``--trace 0`` (default) runs the untraced pass and reports the
end-to-end metrics; ``--trace 1`` runs the traced pass and reports the
per-layer metrics; a bare ``--trace`` runs both into one document.

The last line of standard output is one JSON object.  For a single
workload it is the PR driver's record (``correct``, ``attempted``,
``failed``, ``metrics``); for ``all`` it is a summary ending in
``"claim": null`` — this benchmark measures, it claims nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

SUITE_DIR = Path(__file__).resolve().parent
ROOT = SUITE_DIR.parent.parent
SRC = ROOT / "src"
WORK = SUITE_DIR / ".work"

sys.path.insert(0, str(SUITE_DIR))

from catalog import (  # noqa: E402
    DRIVER_END_TO_END,
    PER_LAYER,
    WORKLOAD_NAMES,
)

SCHEMA = "repro-suite/1"
DEFAULT_SEED = 7
#: Measured seconds per workload when ``--seconds`` is not given: the
#: full-length run behind ``results/baseline.json``.
DEFAULT_SECONDS = 20

#: The environment every workload child runs under.
PINNED_UNSET = (
    "REPRO_EXEC_WORKERS", "REPRO_PLAN_WORKERS", "REPRO_BENCH_WORKERS",
    "REPRO_PLAN_CACHE", "REPRO_SCATTER",
)
PINNED_SET = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # Large arrays fault in as 4 KiB pages whether or not the kernel
    # happens to have free huge pages: with numpy's default madvise the
    # same run measured 20 % faster and 24 MiB fatter on some days.
    "NUMPY_MADVISE_HUGEPAGE": "0",
    # glibc malloc with fixed thresholds (arrays under 32 MiB come from
    # a heap that is never trimmed, as in a long-lived process): left to
    # tune itself, peak RSS of kmer_async was 134 or 158 MiB depending
    # on the seed.
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024**2),
    "MALLOC_TRIM_THRESHOLD_": str(1024**3),
    # The runner never writes under src/, tests/ or the repository root.
    "PYTHONDONTWRITEBYTECODE": "1",
}
#: Sentinel the driver record carries for a per-layer metric whose
#: probe target no longer exists (the document itself says ``null``).
MISSING = -1


def child_env() -> Dict[str, str]:
    env = os.environ.copy()
    for name in PINNED_UNSET:
        env.pop(name, None)
    env.update(PINNED_SET)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


# ----------------------------------------------------------------------
# Child: one pass of one workload
# ----------------------------------------------------------------------
def release_segments() -> None:
    """Unlink any shared-memory segment the program still owns, so a
    failed or interrupted run leaves nothing in /dev/shm."""
    from multiprocessing import shared_memory

    from repro.transport.shm import live_segment_names

    for name in live_segment_names():
        try:
            segment = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        segment.close()
        segment.unlink()


def child_main(args: argparse.Namespace) -> int:
    import numpy
    import scipy

    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.child](args.smoke, Path(args.workdir))
    try:
        if args.pass_ == "e2e":
            result = measure.end_to_end_pass(
                workload, args.seed, args.seconds
            )
        else:
            result = measure.layers_pass(
                workload, args.seed, args.trace_file
            )
    finally:
        release_segments()
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Parent: orchestrate, report
# ----------------------------------------------------------------------
def count_lines(directory: Path) -> Optional[int]:
    """``wc -l`` over ``directory/**/*.py`` (None when absent)."""
    if not directory.is_dir():
        return None
    total = 0
    for path in directory.rglob("*.py"):
        with open(path, "rb") as handle:
            total += sum(1 for _ in handle)
    return total


def git_state() -> Dict[str, Any]:
    """HEAD and whether the tree differs from it (both None outside a
    git checkout, e.g. in the PR driver's exported tree)."""
    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), *args],
                capture_output=True, text=True, check=True,
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        return done.stdout.strip()

    status = git("status", "--porcelain")
    return {
        "git_commit": git("rev-parse", "HEAD") or None,
        "git_dirty": None if status is None else bool(status),
    }


def run_child(name: str, pass_: str, args: argparse.Namespace,
              workdir: Path, trace_file: Optional[Path]) -> Dict[str, Any]:
    """Run one pass of one workload in its own process and wait for it
    — also when interrupted, so no child outlives the runner."""
    result_path = workdir / f"{name}.{pass_}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", name, "--pass", pass_, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", str(workdir),
        "--result", str(result_path),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace_file is not None:
        command += ["--trace-file", str(trace_file)]
    proc = subprocess.Popen(command, env=child_env(), cwd=str(ROOT))
    try:
        code = proc.wait()
    except BaseException:
        # ^C reaches the child too (same process group): give it a
        # moment to run its own clean-up, then make sure it is gone.
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        raise
    if code != 0:
        raise SystemExit(
            f"workload {name} ({pass_} pass) exited with code {code}"
        )
    return json.loads(result_path.read_text())


def run_workloads(args: argparse.Namespace, names: List[str],
                  passes: List[str]) -> Dict[str, Any]:
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    out = Path(args.out).resolve() if args.out else None
    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "passes": passes,
        "host": {"host_cpus": os.cpu_count(), "platform": platform.platform()},
        "code": {
            **git_state(),
            "src_lines": count_lines(ROOT / "src"),
            "tests_lines": count_lines(ROOT / "tests"),
        },
        "env": {
            "unset": list(PINNED_UNSET),
            "set": PINNED_SET,
        },
        "workloads": {},
    }
    try:
        for name in names:
            entry: Dict[str, Any] = {}
            for pass_ in passes:
                trace_file = None
                if pass_ == "layers" and out is not None:
                    trace_file = out.with_name(
                        f"{out.stem}.{name}.trace.json.gz"
                    )
                result = run_child(name, pass_, args, workdir, trace_file)
                document["host"].update(result.pop("versions"))
                for key in ("attempted", "failed"):
                    entry[key] = entry.get(key, 0) + result.pop(key)
                entry.setdefault("failures", []).extend(
                    result.pop("failures")
                )
                entry.update(result)
            document["workloads"][name] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()  # unless another run is still using it
        except OSError:
            pass
    document["claim"] = None
    return document


def print_report(document: Dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    for name, entry in document["workloads"].items():
        print(f"== {name}: attempted {entry['attempted']}, "
              f"failed {entry['failed']}")
        for reason in entry["failures"]:
            print(f"   FAILED: {reason}")
        for metric, value in entry.get("end_to_end", {}).items():
            spread = ""
            if "q1" in value:
                spread = (f"  [q1 {value['q1']:.6g}, q3 {value['q3']:.6g}, "
                          f"n {value['n']}]")
                if value["tail"]:
                    spread += (f"  p{value['tail']['p']:g} "
                               f"{value['tail']['value']:.6g}")
            print(f"   {metric:<28} {value['value']:.9g} "
                  f"{value['unit']}{spread}")
        for metric, value in entry.get("per_layer", {}).items():
            if value["value"] is None:
                print(f"   {metric:<34} null  ({value['reason']})")
            else:
                print(f"   {metric:<34} {value['value']:.9g} "
                      f"{value['unit']}")


def driver_record(entry: Dict[str, Any], passes: List[str]) -> Dict[str, Any]:
    """The PR driver's one-line record for a single workload."""
    metrics: Dict[str, Any] = {}
    if "e2e" in passes:
        for name in DRIVER_END_TO_END:
            value = entry["end_to_end"][name]
            metrics[name] = {"value": value["value"], "unit": value["unit"]}
    if "layers" in passes:
        for layer in PER_LAYER:
            value = entry["per_layer"][layer.name]
            metrics[layer.name] = {
                "value": MISSING if value["value"] is None
                else value["value"],
                "unit": layer.unit,
            }
    return {
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured seconds per workload on the "
                             "reference box; scales the fixed sample counts")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"))
    parser.add_argument("--out", help="write the JSON document here")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, 2 samples per phase")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    # Internal: one pass of one workload, run by the parent.
    parser.add_argument("--child", choices=WORKLOAD_NAMES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--pass", dest="pass_", choices=("e2e", "layers"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    parser.add_argument("--trace-file", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.compare or args.child or args.workload):
        parser.error("one of --workload, --compare is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.compare:
        from compare import compare_files

        return compare_files(*args.compare)
    if args.child:
        return child_main(args)
    if not (SRC / "repro").is_dir():
        print(f"error: the program under test is missing: {SRC / 'repro'}",
              file=sys.stderr)
        return 2

    names = list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    passes = {"0": ["e2e"], "1": ["layers"], "both": ["e2e", "layers"]}[
        args.trace
    ]
    document = run_workloads(args, names, passes)
    print_report(document)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    attempted = sum(e["attempted"] for e in document["workloads"].values())
    failed = sum(e["failed"] for e in document["workloads"].values())
    if len(names) == 1:
        record = driver_record(document["workloads"][names[0]], passes)
    else:
        record = {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "workloads": names, "claim": None,
        }
    print(json.dumps(record))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

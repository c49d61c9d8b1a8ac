"""Command line: one pass of one workload, the whole suite, or ``compare``.

    python3 -m layerbench --workload W --seed N --seconds S --trace 0|1
    python3 -m layerbench --seed N [--repeat R] [--out PATH]
    python3 -m layerbench compare A.json B.json

The first form is what the benchmark driver calls: it prints one
``workload metric value unit`` line per metric and, last, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
second runs every workload, untraced then traced, each pass in a fresh
subprocess, and writes one result file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from .spec import PINNED_WORKLOADS, ROOT, Spec

#: Share of ``run_seconds`` the suite gives each traced pass.
SUITE_TRACED_SHARE = 0.5


def _one_pass(args: argparse.Namespace, spec: Spec) -> int:
    cpus = sorted(os.sched_getaffinity(0))
    if args.workload in PINNED_WORKLOADS:
        # Before NumPy loads, so its BLAS sizes its thread pool to one CPU.
        os.sched_setaffinity(0, {cpus[-1]})
    src = ROOT / "src"
    if src.is_dir():
        sys.path.insert(0, str(src))
    try:
        from . import harness
    except ImportError as exc:
        print(f"layerbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    result, tally = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), spec, cpus)
    print(f"{args.workload} requests " + " ".join(
        f"{key}={value}" for key, value in tally.items()))
    for metric, row in result["metrics"].items():
        print(f"{args.workload} {metric} {row['value']!r} {row['unit']}")
    print(json.dumps(result))
    return 0


#: ``prctl`` option: orphaned descendants are re-parented to this process.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds the pass's descendants get to end by themselves, once it has
#: ended or been told to, before they are killed.
ORPHAN_GRACE_S = 5.0


def _terminated(signum: int, frame: Any) -> None:
    raise SystemExit(128 + signum)


def _kill_children() -> None:
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            # "pid (comm) state ppid ...", and comm may hold anything.
            if int(stat.rpartition(")")[2].split()[1]) == me:
                os.kill(int(entry), signal.SIGKILL)
        except (OSError, ValueError):
            pass


def _reap() -> None:
    """Wait for every descendant left, killing those that outstay the grace.

    A killed process hands its own children to this one (the subreaper),
    so the loop runs until there is no child of any generation.
    """
    deadline = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            _kill_children()
        time.sleep(0.002)


def _supervised_pass(args: argparse.Namespace, spec: Spec) -> int:
    """One pass in a forked child; return only when nothing it started lives.

    A pass that ran in this process would always leave one process behind:
    ``multiprocessing``'s resource tracker, which the first ``ShmRing``
    starts, ends only after its parent has.  So the pass runs in a child,
    this process adopts whatever the child orphans, and on every way out
    (exit, exception, SIGTERM, ^C -- the child is then told to unwind, so
    that the gateway unlinks its rings) it waits for each of them, and
    kills those that outstay ``ORPHAN_GRACE_S``.
    """
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes = [ctypes.c_int] + 4 * [ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    if prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0):
        print("layerbench: cannot adopt orphans "
              f"({os.strerror(ctypes.get_errno())}); they will not be "
              "waited for", file=sys.stderr)
    signal.signal(signal.SIGTERM, _terminated)
    sys.stdout.flush()
    child = os.fork()
    if child == 0:
        return _one_pass(args, spec)
    try:
        code = os.waitstatus_to_exitcode(os.waitpid(child, 0)[1])
    except BaseException:
        os.kill(child, signal.SIGTERM)
        raise
    finally:
        _reap()
    return code if code >= 0 else 128 - code


def _host(seed: int, seconds: float) -> Dict[str, Any]:
    import multiprocessing

    try:
        import numpy

        numpy_version = numpy.__version__
        blas = numpy.show_config(mode="dicts").get(
            "Build Dependencies", {}).get("blas", {})
        blas = {key: blas.get(key) for key in ("name", "version")}
    except ImportError:
        numpy_version, blas = None, {}
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    methods = multiprocessing.get_all_start_methods()
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas,
        "git_commit": commit.stdout.strip() or "unknown",
        "seed": seed,
        "seconds": seconds,
        # ClusterGateway forks its workers wherever fork exists.
        "start_method": "fork" if "fork" in methods else "spawn",
    }


def _child(workload: str, seed: int, seconds: float, traced: int
           ) -> Dict[str, Any]:
    """One pass in a fresh interpreter, so heap and RSS do not carry over."""
    done = subprocess.run(
        [sys.executable, "-m", "layerbench", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds),
         "--trace", str(traced)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(
            f"layerbench: {workload} (trace {traced}) exited "
            f"{done.returncode}")
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def _suite(args: argparse.Namespace, spec: Spec) -> int:
    seconds = float(args.seconds)
    runs: List[Dict[str, Any]] = []
    all_correct = True
    for repeat in range(args.repeat):
        seed = args.seed + repeat
        workloads: Dict[str, Any] = {}
        for workload in spec.workloads:
            loadavg = os.getloadavg()[0]
            bare = _child(workload, seed, seconds, 0)
            traced = _child(workload, seed, seconds * SUITE_TRACED_SHARE, 1)
            all_correct &= bare["correct"] and traced["correct"]
            workloads[workload] = {
                "loadavg_1m_before": loadavg,
                "correct": bare["correct"] and traced["correct"],
                "attempted": bare["attempted"],
                "failed": bare["failed"],
                "end_to_end": {name: row["value"]
                               for name, row in bare["metrics"].items()},
                "per_layer": {name: row["value"]
                              for name, row in traced["metrics"].items()},
            }
        runs.append({"seed": seed, "workloads": workloads})
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "host": _host(args.seed, seconds),
        "benchmark_sha256": spec.digest,
        "runs": runs,
    }, indent=1))
    print(f"layerbench: wrote {out}"
          f"{'' if all_correct else ' (INCORRECT ANSWERS, see above)'}")
    return 0 if all_correct else 1


def main(argv: List[str]) -> int:
    spec = Spec.load()
    if argv and argv[0] == "compare":
        from .compare import compare

        parser = argparse.ArgumentParser(prog="layerbench compare")
        parser.add_argument("base")
        parser.add_argument("new")
        args = parser.parse_args(argv[1:])
        return compare(Path(args.base), Path(args.new), spec)
    parser = argparse.ArgumentParser(prog="layerbench", description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=spec.workloads)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=spec.run_seconds,
                        help="measured seconds per pass (results taken at any "
                             "other length than run_seconds do not compare)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite only: runs, on seeds seed, seed+1, ...")
    parser.add_argument("--out", default="layerbench/results/latest.json")
    args = parser.parse_args(argv)
    if args.workload:
        return _supervised_pass(args, spec)
    return _suite(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

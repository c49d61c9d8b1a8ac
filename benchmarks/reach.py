"""Which ``src/`` functions no example, benchmark gate or layerbench pass
ever enters (``make reach``).

Runs the six examples, ``pytest benchmarks``, every BENCHMARK.json workload
at ``--trace 0`` and ``--trace 1`` (``--seconds 1``) and ``python -m
repro.plan``, each in a child interpreter under a ``sys.setprofile`` call
recorder, then prints, per file, every function defined under ``src/`` that
no run entered: its line, qualified name and length.  The list is evidence
for a deletion, not a verdict.  It comes in two groups: the functions named
in ``benchmarks/reach_kept.txt`` -- kept on purpose (held for an open item,
a Table 1 call, a test's seam or oracle), each line ``path::Qualname``
followed by the reason -- and the candidates, everything else.  A kept line
naming a function ``src/`` no longer defines is stale: the tool lists those
and exits 1 before running anything.

    PYTHONPATH=src python benchmarks/reach.py        # 2-3 min on 2 vCPUs
    PYTHONPATH=src python benchmarks/reach.py --against parent-reach.json

Every run writes ``benchmarks/artifacts/reach.json``: the functions ``src/``
defines and those no run entered, as ``path::Qualname``.  With
``--against`` a list written the same way at another commit (run this file
in a checkout of it), the report ends with the functions this tree newly
strands -- defined and entered there, never entered here -- and the new
functions no run enters.  Line numbers are left out of the names, so an
edit that moves a function does not make it look new.

How the recorder keeps seeing every call:

* ``repro.testing.profiled_calls`` installs a profiler of its own, so
  ``sys.setprofile`` and ``threading.setprofile`` are wrapped: a profiler
  set by the program runs after the recorder, and clearing it leaves the
  recorder in place;
* a forked child (layerbench's pass, a cluster worker) inherits the
  recorder and writes its own record at exit; ``os._exit`` -- how a
  ``multiprocessing`` child ends -- writes it first.  A process killed by a
  signal (the chaos gates' SIGKILL) leaves no record;
* ``python -m layerbench`` runs from the repo root with the root on
  ``PYTHONPATH``.

Under the recorder the benchmark gates take about twice as long (58 s ->
115 s back to back on 2 shared vCPUs), so a wall-clock gate may fail; each
run's exit status is printed, and the record is kept either way.
"""

from __future__ import annotations

import atexit
import inspect
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KEPT = Path(__file__).resolve().parent / "reach_kept.txt"
ARTIFACT = ROOT / "benchmarks" / "artifacts" / "reach.json"
EXAMPLES = ("quickstart", "aes_encryption", "resnet_inference", "llm_encoder",
            "serving", "cluster")
LAYERBENCH_SEED = 12345

#: ``(file relative to src/, qualified name, first line)`` of one function.
Key = Tuple[str, str, int]


def runs() -> List[Tuple[str, List[str]]]:
    """``(label, child arguments)`` of every run, in the order they go."""
    workloads = [row["name"] for row in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    return [
        *((f"examples/{name}.py", ["--script", f"examples/{name}.py"])
          for name in EXAMPLES),
        ("pytest benchmarks", ["--module", "pytest", "benchmarks", "-q"]),
        *((f"layerbench {workload} --trace {trace}",
           ["--module", "layerbench", "--workload", workload, "--seed",
            str(LAYERBENCH_SEED), "--seconds", "1", "--trace", str(trace)])
          for workload in workloads for trace in (0, 1)),
        ("python -m repro.plan", ["--module", "repro.plan"]),
    ]


# ---------------------------------------------------------------------- #
# Child side: record, then run the target as __main__                     #
# ---------------------------------------------------------------------- #
def install_recorder(out_dir: Path) -> None:
    """Record every Python function entered, in this process and its forks."""
    seen: Set = set()

    def record(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    def chained(function):
        if function is None or getattr(function, "records", False):
            return function or record

        def both(frame, event, arg):
            record(frame, event, arg)
            return function(frame, event, arg)

        both.records = True
        return both

    record.records = True
    set_profile, set_thread_profile = sys.setprofile, threading.setprofile
    sys.setprofile = lambda function: set_profile(chained(function))
    threading.setprofile = lambda function: set_thread_profile(chained(function))

    def write() -> None:
        prefix = f"{SRC}{os.sep}"
        lines = {
            f"{code.co_filename[len(prefix):]}\t{code.co_qualname}\t"
            f"{code.co_firstlineno}"
            for code in list(seen) if code.co_filename.startswith(prefix)
        }
        path = out_dir / f"{os.getpid()}-{time.monotonic_ns()}.txt"
        path.write_text("\n".join(sorted(lines)))

    exit_now = os._exit

    def recorded_exit(code: int) -> None:
        write()
        exit_now(code)

    os._exit = recorded_exit
    atexit.register(write)
    set_thread_profile(record)
    set_profile(record)


def child(argv: List[str]) -> None:
    """``--record DIR (--script PATH | --module NAME) ARGS...``"""
    out_dir, kind, target, *args = argv[2:]
    install_recorder(Path(out_dir))
    sys.argv = [target, *args]
    if kind == "--script":
        sys.path[0] = str(Path(target).resolve().parent)
        runpy.run_path(target, run_name="__main__")
    else:
        sys.path[0] = os.getcwd()  # as ``python -m`` has it
        runpy.run_module(target, run_name="__main__", alter_sys=True)


# ---------------------------------------------------------------------- #
# Parent side: the functions src/ defines, minus those any run entered    #
# ---------------------------------------------------------------------- #
def functions(path: Path) -> Iterator[Tuple[Key, int]]:
    """Every ``def`` in one source file, with the lines its body spans."""
    relative = str(path.relative_to(SRC))
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
        # Module and class bodies are not functions; lambdas and
        # comprehensions are named "<...>".
        if code.co_flags & inspect.CO_OPTIMIZED and not code.co_name.startswith("<"):
            last = max(line for _, _, line in code.co_lines() if line)
            yield ((relative, code.co_qualname, code.co_firstlineno),
                   last - code.co_firstlineno + 1)


def defined_functions() -> Dict[Key, int]:
    """Every function ``src/`` defines, with the lines its body spans."""
    return dict(kv for path in sorted(SRC.rglob("*.py")) for kv in functions(path))


def kept_list() -> Dict[Tuple[str, str], str]:
    """``(file, qualified name) -> reason`` of every line of the kept list
    (blank lines and ``#`` comments skipped)."""
    kept = {}
    for line in KEPT.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(" ")
            relative, _, qualname = name.partition("::")
            kept[(relative, qualname)] = reason.strip()
    return kept


def stale_kept(defined: Dict[Key, int]) -> List[str]:
    """The kept-list entries that name no function ``src/`` defines."""
    names = {(relative, qualname) for relative, qualname, _ in defined}
    return [f"{relative}::{qualname}" for relative, qualname in kept_list()
            if (relative, qualname) not in names]


def report(entered: Set[Key], defined: Dict[Key, int]) -> List[Key]:
    """Print the never-entered functions, kept first; return them."""
    kept = kept_list()
    missed = sorted((key for key in defined if key not in entered),
                    key=lambda key: (key[0], key[2]))
    groups = {True: [], False: []}
    for key in missed:
        groups[key[:2] in kept].append(key)
    print(f"# {len(missed)} of {len(defined)} src/ functions "
          f"({sum(defined[key] for key in missed)} lines) never entered: "
          f"{len(groups[True])} kept, {len(groups[False])} candidates")
    for is_kept, title in ((True, f"kept ({KEPT.name})"), (False, "candidates")):
        keys = groups[is_kept]
        print(f"## {title}: {len(keys)} functions, "
              f"{sum(defined[key] for key in keys)} lines")
        current = None
        for key in keys:
            relative, qualname, line = key
            if relative != current:
                current = relative
                print(relative)
            reason = f"  -- {kept[key[:2]]}" if is_kept else ""
            print(f"  {line:5d}  {qualname}  ({defined[key]} lines){reason}")
    return missed


def name(key: Key) -> str:
    return f"{key[0]}::{key[1]}"


def compare(defined: Dict[Key, int], missed: List[Key], base: Dict) -> None:
    """Print what this tree strands against ``base``, another run's
    ``reach.json``."""
    was_defined, was_missed = set(base["defined"]), set(base["never_entered"])
    stranded = [key for key in missed
                if name(key) in was_defined and name(key) not in was_missed]
    unreached = [key for key in missed if name(key) not in was_defined]
    for title, keys in (("newly stranded (entered in the base run)", stranded),
                        ("new and never entered", unreached)):
        print(f"## {title}: {len(keys)} functions, "
              f"{sum(defined[key] for key in keys)} lines")
        for key in keys:
            print(f"  {name(key)}  ({defined[key]} lines)")


def main(argv: List[str]) -> int:
    # Read before the runs: a missing or malformed base fails in a second.
    base = (json.loads(Path(argv[argv.index("--against") + 1]).read_text())
            if "--against" in argv else None)
    defined = defined_functions()
    stale = stale_kept(defined)
    if stale:
        print(f"# {KEPT.name} names {len(stale)} function(s) src/ no longer defines:")
        print("\n".join(f"  {name}" for name in stale))
        return 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), str(ROOT), os.environ.get("PYTHONPATH")])))
    entered: Set[Key] = set()
    with tempfile.TemporaryDirectory(prefix="reach-") as out_dir:
        for label, args in runs():
            started = time.monotonic()
            done = subprocess.run(
                [sys.executable, __file__, "--record", out_dir, *args],
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            print(f"# {label}: exit {done.returncode}, "
                  f"{time.monotonic() - started:.0f} s", flush=True)
        for record in Path(out_dir).iterdir():
            for line in record.read_text().splitlines():
                relative, qualname, first = line.split("\t")
                entered.add((relative, qualname, int(first)))
    missed = report(entered, defined)
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(json.dumps({
        "defined": sorted(map(name, defined)),
        "never_entered": sorted(map(name, missed)),
    }, indent=0))
    print(f"# wrote {ARTIFACT.relative_to(ROOT)}")
    if base is not None:
        compare(defined, missed, base)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--record"]:
        child(sys.argv)
    else:
        sys.exit(main(sys.argv[1:]))

"""sha3pim benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload sweep_0_200 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Every measurement happens in a
fresh single-threaded child interpreter (``worker.py``) with the checkout's
``src`` on ``PYTHONPATH``: a set-up-only child, then one that sets up
and hashes. ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones (see ``catalog.py``). Every digest is checked against
``hashlib.sha3_256`` and every simulated figure against
``expected_sim.json``. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a run record
with provenance is written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, PER_LAYER  # noqa: E402
from worker import WORKLOADS, messages_for  # noqa: E402

SETUP_SAMPLES = 2           # set-up-only children plus the measured one
DEADLINE_S = 170            # whole run, children included
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS")}


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion and return its last stdout line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(root: Path, args, measured: dict, load_at_start) -> dict:
    commit = None
    if (root / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "python": measured["python"], "numpy": measured["numpy"],
        "numba_importable": measured["numba"], "backend": measured["backend"],
        "SHA3PIM_BACKEND": os.environ.get("SHA3PIM_BACKEND"),
        "cpu_count": os.cpu_count(), "loadavg_at_start": load_at_start,
        "git_commit": commit, "source_sha256": source.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "repeats": {"setup": SETUP_SAMPLES, "hash_calls": measured["calls"]},
    }


def trace_overhead_pct(records: Path, workload: str, traced: dict,
                       untraced_setups: list[float]) -> float:
    """Traced set-up plus hash time against the median of the untraced runs
    recorded in this checkout; set-up alone against this run's untraced
    set-up samples while no untraced run has been recorded."""
    untraced = [json.loads(path.read_text())
                for path in records.glob(f"{workload}-seed*-trace0.json")]
    totals = [r["metrics"]["setup_s"]["value"] + r["metrics"]["hash_s"]["value"]
              for r in untraced if r["correct"]]
    if totals:
        return 100 * ((traced["setup_s"] + traced["hash_s"])
                      / statistics.median(totals) - 1)
    return 100 * (traced["setup_s"] / statistics.median(untraced_setups) - 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "sha3pim" / "__init__.py").is_file():
        print(f"run.py: no sha3pim sources under {root / 'src'}; run it from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    deadline = time.monotonic() + DEADLINE_S
    env = {**os.environ, **SINGLE_THREAD,
           "PYTHONPATH": os.pathsep.join(
               [str(root / "src")] + ([os.environ["PYTHONPATH"]]
                                      if os.environ.get("PYTHONPATH") else []))}
    records = root / ".perfbench"
    records.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    mode = ["--mode", "trace", "--spans", str(records / f"{stem}-spans.json")] \
        if args.trace else ["--mode", "run"]
    try:
        setups = [child(["--mode", "setup"], env, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        main_run = child(mode + ["--workload", args.workload, "--seed",
                                 str(args.seed), "--seconds", str(args.seconds)],
                         env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        # A run that could not finish is reported as failed, not dropped.
        print(f"run.py: {exc}", file=sys.stderr)
        attempted = len(messages_for(args.workload, args.seed))
        table = PER_LAYER if args.trace else END_TO_END
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": attempted, "metrics": {
                              m["name"]: {"value": 0.0, "unit": m["unit"]}
                              for m in table}}))
        return 0
    if not Path(main_run["module"]).resolve().is_relative_to(root / "src"):
        print(f"run.py: imported {main_run['module']}, not the checkout's "
              "sources", file=sys.stderr)
        return 2

    problems = list(main_run["problems"]) + main_run.get("errors", [])
    expected = json.loads((HERE / "expected_sim.json").read_text())[args.workload]
    sim = main_run.get("sim", {})
    for name, value in expected.items():
        if sim.get(name) != value:
            problems.append(f"{name} = {sim.get(name)}, expected {value}")

    untraced_setups = [s["setup_s"] for s in setups]
    if args.trace:
        values = dict(main_run.get("layers", {}), **{
            name: value for name, value in sim.items() if name.startswith("sim.")})
        values["trace.overhead_pct"] = trace_overhead_pct(
            records, args.workload, main_run, untraced_setups)
        table = PER_LAYER
    else:
        hash_s = main_run["hash_s"]
        values = dict(sim, setup_s=statistics.median(
            untraced_setups + [main_run["setup_s"]]),
            hash_s=hash_s, peak_rss_mb=main_run["peak_rss_mb"],
            gate_exec_per_s=main_run.get("gate_executions", 0) / hash_s)
        table = END_TO_END
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in table}

    attempted, failed = main_run["attempted"], main_run["failed"]
    correct = failed == 0 and not problems
    record = {"provenance": provenance(root, args, main_run, load_at_start),
              "setup_samples_s": untraced_setups + [main_run["setup_s"]],
              "hash_calls_s": main_run["hash_calls_s"],
              "digest_fail_frac": failed / attempted, "problems": problems,
              "correct": correct, "metrics": metrics}
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} backend={main_run['backend']} "
          f"hash calls={main_run['calls']} set-up samples={SETUP_SAMPLES}")
    print(f"  {'digest_fail_frac':28s} {failed / attempted:>18.6g}  "
          f"({failed} of {attempted} messages)")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:>18.6g}  {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

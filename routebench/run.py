"""The routing benchmark: one command, every metric with its unit, checked answers.

Usage, from the repository root::

    python3 routebench/run.py --workload http-hot --seed 1 --seconds 25 --trace 0
    python3 routebench/run.py --compare RESULTS_A RESULTS_B
    python3 routebench/run.py --self-test

A run mines the city store with this checkout's ``src/`` (once per source
digest, kept under ``.routebench/``), generates the workload's request list
from ``--seed``, then measures in fresh worker processes: untraced for the
end-to-end metrics (``--trace 0``), or an untraced and a traced run for the
per-layer metrics (``--trace 1``).  Every answer is checked against an
in-process reference computed once for this code and population.  The
last line of standard output is the result object; the line before it is the
full record, also saved under ``.routebench/results/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import BenchmarkError, run_workload  # noqa: E402
from offline import CITY  # noqa: E402
from stats import quartiles, verdict  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _records(directory: Path) -> list[dict]:
    return [json.loads(path.read_text()) for path in sorted(directory.rglob("*.json"))]


def compare(base_dir: Path, change_dir: Path) -> int:
    """Print each end-to-end metric x workload verdict, then per-layer deltas."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    base, change = _records(base_dir), _records(change_dir)
    print(f"{'workload':16} {'metric':18} {'base median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30}  verdict")
    names = sorted({r["workload"] for r in base} | {r["workload"] for r in change})
    for name in names:
        b_runs = {r["seed"]: r for r in base if r["workload"] == name and not r["trace"]}
        c_runs = {r["seed"]: r for r in change if r["workload"] == name and not r["trace"]}
        if not b_runs or not c_runs:
            print(f"{name:16} (untraced runs missing on one side)")
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            b = [r["end_to_end"][key] for r in b_runs.values()]
            c = [r["end_to_end"][key] for r in c_runs.values()]
            pairs = [(b_runs[s]["end_to_end"][key], c_runs[s]["end_to_end"][key])
                     for s in sorted(set(b_runs) & set(c_runs))]
            result = verdict(b, c, pairs, metric["bound"], metric["better"] == "lower")
            print(f"{name:16} {key:18} {_fmt(b):>30} {_fmt(c):>30}  {result}")
        b_digests = {r["answers"]["digest"] for r in b_runs.values()}
        c_digests = {r["answers"]["digest"] for r in c_runs.values()}
        print(f"{name:16} answers {'identical' if b_digests == c_digests else 'DIFFER'} "
              f"({len(b_runs)} base runs, {len(c_runs)} change runs)")
    print("\nper-layer medians of traced runs (change - base):")
    for name in names:
        b_runs = [r for r in base if r["workload"] == name and r["trace"]]
        c_runs = [r for r in change if r["workload"] == name and r["trace"]]
        if not b_runs or not c_runs:
            continue
        for metric in spec["per_layer"]:
            key = metric["name"]
            b = statistics.median(r["result"]["metrics"][key]["value"] for r in b_runs)
            c = statistics.median(r["result"]["metrics"][key]["value"] for r in c_runs)
            delta = f"{100.0 * (c - b) / b:+.1f}%" if b else "n/a"
            print(f"{name:16} {key:36} {b:14.4g} {c:14.4g} {delta:>9}")
    return 0


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "CHANGE_DIR"))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(Path(args.compare[0]), Path(args.compare[1]))
    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("routebench: run from the repository root; src/repro was not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".routebench"
    if args.self_test:
        from selftest import self_test

        return self_test(root, work / "selftest")
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, record = run_workload(
            root, work, CITY, WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace),
        )
    except BenchmarkError as exc:
        print(f"routebench: {exc}", file=sys.stderr)
        return 1
    out = work / "results" / args.workload / f"seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    for problem in record["problems"]:
        print(f"routebench: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Spread of repeated runs, and comparison of two result sets.

  compare.py spread LOGDIR [--write BASELINE.json]
      LOGDIR holds one `<workload>.<seed>.log` per run (the full output of
      benchmark/run.sh, as benchmark/repeat.sh leaves it). For every
      workload x end-to-end metric: the median, and the distance between the
      first and third quartile as a share of the median, against the bound in
      BENCHMARK.json. Exits 1 if a spread exceeds its bound, if a run is
      incorrect, or if a run's metric names differ from BENCHMARK.json's.
      --write stores medians, spreads (the noise floor) and fingerprints.

  compare.py compare BASE.json NEW.json
      Both files written by `spread --write`. Prints, for every workload x
      end-to-end metric, how much worse NEW's median is than BASE's against
      the bound. Refuses (exit 2) when a workload's fingerprint for a seed
      differs between the two: they did not run the same workload.
"""
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def read_log(path):
    """One run: its fingerprint and the result line."""
    fingerprint, result = None, None
    for line in path.read_text().splitlines():
        if line.startswith("info fingerprint "):
            fingerprint = line.split()[2]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
    if result is None:
        sys.exit(f"{path}: no result line")
    return fingerprint, result


def spread_of(values):
    """Interquartile distance as a share of the median, as the driver takes it."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def spread(logdir, write_to):
    runs = {}
    for path in sorted(pathlib.Path(logdir).glob("*.log")):
        workload, seed = path.name[: -len(".log")].rsplit(".", 1)
        runs.setdefault(workload, []).append((seed, *read_log(path)))
    if not runs:
        sys.exit(f"{logdir}: no *.log files")
    failed = False
    baseline = {"workloads": {}}
    print(f"{'workload':<14} {'metric':<12} {'median':>14} {'unit':<5} {'spread':>7} {'bound':>6}  runs")
    for workload in [w["name"] for w in SPEC["workloads"]]:
        entry = baseline["workloads"][workload] = {"fingerprints": {}, "metrics": {}}
        for seed, fingerprint, result in runs.get(workload, []):
            entry["fingerprints"][seed] = fingerprint
            names = set(result["metrics"])
            expected = PER_LAYER if names & PER_LAYER else set(END_TO_END)
            if names != expected:
                print(f"{workload} seed {seed}: metric names differ from BENCHMARK.json: {sorted(names ^ expected)}")
                failed = True
            if not result["correct"] or result["failed"] != 0:
                print(f"{workload} seed {seed}: incorrect run ({result['failed']} of {result['attempted']} failed)")
                failed = True
        for name, spec in END_TO_END.items():
            values = [r["metrics"][name]["value"] for _, _, r in runs.get(workload, []) if name in r["metrics"]]
            if not values:
                continue
            s, med = spread_of(values), statistics.median(values)
            verdict = "" if s <= spec["bound"] else "  EXCEEDS BOUND"
            failed |= bool(verdict)
            print(f"{workload:<14} {name:<12} {med:>14.6g} {spec['unit']:<5} {s:>7.3f} {spec['bound']:>6.2f}  {len(values)}{verdict}")
            entry["metrics"][name] = {"median": med, "spread": s, "unit": spec["unit"], "runs": len(values)}
    if write_to:
        pathlib.Path(write_to).write_text(json.dumps(baseline, indent=1) + "\n")
        print(f"wrote {write_to}")
    sys.exit(1 if failed else 0)


def compare(base_path, new_path):
    base = json.loads(pathlib.Path(base_path).read_text())["workloads"]
    new = json.loads(pathlib.Path(new_path).read_text())["workloads"]
    for workload in base:
        for seed, fingerprint in base[workload]["fingerprints"].items():
            other = new.get(workload, {}).get("fingerprints", {}).get(seed)
            if other is not None and other != fingerprint:
                print(f"{workload} seed {seed}: fingerprint {fingerprint} vs {other}: not the same workload, not comparable")
                sys.exit(2)
    regressed = False
    print(f"{'workload':<14} {'metric':<12} {'base':>14} {'new':>14} {'worse by':>9} {'bound':>6} {'noise':>6}")
    for workload in base:
        for name, b in base[workload]["metrics"].items():
            n = new.get(workload, {}).get("metrics", {}).get(name)
            if n is None:
                continue
            change = (n["median"] - b["median"]) / b["median"]
            worse = -change if END_TO_END[name]["better"] == "higher" else change
            bound = END_TO_END[name]["bound"]
            noise = max(b["spread"], n["spread"])
            verdict = ""
            if worse > bound:
                verdict, regressed = "  REGRESSION", True
            elif noise > bound:
                verdict = "  unresolved (spread wider than bound)"
            print(f"{workload:<14} {name:<12} {b['median']:>14.6g} {n['median']:>14.6g} {worse:>+9.3f} {bound:>6.2f} {noise:>6.3f}{verdict}")
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) >= 2 and args[0] == "spread":
        spread(args[1], args[3] if len(args) == 4 and args[2] == "--write" else None)
    elif len(args) == 3 and args[0] == "compare":
        compare(args[1], args[2])
    else:
        sys.exit(__doc__)

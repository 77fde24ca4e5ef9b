#!/usr/bin/env python3
"""The perfbench counts ledger, BENCH_perf.json.

The ledger holds perfbench result lines at seed 1, each with its stamp
line, for all four workloads under --trace 0 (end-to-end metrics) and
--trace 1 (per-layer metrics).  It has two entries: "parent", the commit
a change was measured against, and "change", the change itself.  A
change is recorded before it is committed, so its stamps name the
parent commit; their source_digest tells the two apart.

The traced counts of a synthesis workload are sums per pass, so they do
not depend on the run length.  The "gate" lists, per synthesis workload,
the count-unit metrics of the place, route and schedule layers that two
traced runs of "change" reproduced exactly; `check` fails when a fresh
run differs on any of them.  Wall times and the other metrics are
recorded but never gated.

Run from the repository root:

  python3 bench/ledger.py check
      rerun scale and table1 traced (seed 1, 5 s each) and compare
  python3 bench/ledger.py record ENTRY CHECKOUT
      run every workload in CHECKOUT (a directory holding the code to
      measure) for 10 s each and store the lines as ENTRY ("parent" or
      "change"); recording "change" also rewrites the gate
"""
import argparse
import json
import subprocess
import sys

LEDGER = "BENCH_perf.json"
WORKLOADS = ["table1", "scale", "serve-hot", "serve-churn"]
GATED_WORKLOADS = ["scale", "table1"]
GATED_LAYERS = ("place.", "route.", "schedule.")
RECORD_SECONDS = 10
CHECK_SECONDS = 5


def perfbench(checkout, workload, trace, seconds):
    """Stamp and result of one perfbench run, as parsed JSON objects."""
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", "1",
           "--seconds", str(seconds), "--trace", str(trace)]
    print("+", " ".join(cmd), flush=True)
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"perfbench exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return {"stamp": json.loads(lines[-2])["stamp"],
            "result": json.loads(lines[-1])}


def counts(run):
    """The run's count-unit metrics of the synthesis layers."""
    return {k: v["value"] for k, v in run["result"]["metrics"].items()
            if v["unit"] == "count" and k.startswith(GATED_LAYERS)}


def load():
    try:
        with open(LEDGER) as f:
            return json.load(f)
    except FileNotFoundError:
        return {"about": __doc__.split("\n\n")[1].replace("\n", " "),
                "entries": {}, "gate": {}}


def record(entry, checkout):
    doc = load()
    runs = {w: {f"trace{t}": perfbench(checkout, w, t, RECORD_SECONDS)
                for t in (0, 1)}
            for w in WORKLOADS}
    doc["entries"][entry] = runs
    if entry == "change":
        gate = {}
        for w in GATED_WORKLOADS:
            first = counts(runs[w]["trace1"])
            again = counts(perfbench(checkout, w, 1, RECORD_SECONDS))
            gate[w] = {k: v for k, v in sorted(first.items())
                       if again.get(k) == v}
        doc["gate"] = gate
    with open(LEDGER, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def check():
    gate = load()["gate"]
    assert set(gate) == set(GATED_WORKLOADS), f"{LEDGER}: gate {sorted(gate)}"
    diffs = []
    for w in GATED_WORKLOADS:
        run = perfbench(".", w, 1, CHECK_SECONDS)
        assert run["result"]["failed"] == 0, (w, run["result"])
        got = counts(run)
        for name, want in gate[w].items():
            if got.get(name) != want:
                diffs.append(f"{w} {name}: ledger {want}, run {got.get(name)}")
        print(f"{w}: {len(gate[w])} gated counts checked", flush=True)
    if diffs:
        print("counts differ from " + LEDGER + ":\n  " + "\n  ".join(diffs))
        print("A change that moves a count on purpose records the ledger "
              "again: `python3 bench/ledger.py record parent PARENT_CHECKOUT` "
              "and `python3 bench/ledger.py record change .`.")
        sys.exit(1)


def main():
    parser = argparse.ArgumentParser(
        description="Record or check the perfbench counts ledger.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("check")
    rec = sub.add_parser("record")
    rec.add_argument("entry", choices=["parent", "change"])
    rec.add_argument("checkout")
    args = parser.parse_args()
    if args.cmd == "check":
        check()
    else:
        record(args.entry, args.checkout)


if __name__ == "__main__":
    main()

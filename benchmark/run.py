#!/usr/bin/env python3
"""The benchmark's one command.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

builds the benchmark package (offline, std-only stand-ins for the external
crates), runs workload W and prints one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
the per-layer ones (spans + counts from the e2e binary, isolated-layer
timings from the probes binary, paper_err_pct from paper_anchors.json), and
a Chrome trace goes to benchmark/out/trace_<workload>.json.

Without --workload it runs all five. Exit code is non-zero if any op
failed, or any metric BENCHMARK.json names is missing or not finite.

    run.py --repeat-check   full suite twice back to back, compared
    run.py --self-test      a corrupted byte must make the command fail
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build():
    """Build both binaries; returns the directory holding them."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / "target")).resolve()
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # cargo's chatter must not end up after (or in place of) the result line.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")
    return target / "release"


def last_json(cmd):
    """Run a binary, pass its stderr through, parse its last stdout line."""
    p = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"run.py: {Path(cmd[0]).name} exited with {p.returncode}")
    return json.loads(lines[-1])


def paper_err(points):
    """(max error %, worst anchor) of the measured points against the paper."""
    worst = (0.0, None)
    for a in json.loads((BENCH / "paper_anchors.json").read_text())["anchors"]:
        p = points[a["point"]]
        if a["quantity"] == "us":
            got = p["virt_us"]
        else:  # MiB/s
            got = p["bytes"] / 2**20 / (p["virt_us"] / 1e6)
        err = (got - a["paper"]) / a["paper"]
        # A one-sided anchor ("below 25 us") counts only when violated.
        err = abs(err) if a["bound"] == "two-sided" else max(0.0, err)
        log(f"  anchor {a['name']:28s} paper {a['paper']:8.2f}  measured {got:9.3f}  err {100 * err:6.2f}%")
        if err > worst[0]:
            worst = (err, a["name"])
    return 100 * worst[0], worst[1]


def run_one(bindir, workload, seed, seconds, trace, corrupt=False):
    """One run of one workload; returns the result object, extras included."""
    cmd = [bindir / "e2e", "--workload", workload, "--seed", seed, "--seconds", seconds,
           "--trace", int(trace), "--out-dir", BENCH / "out"]
    res = last_json(cmd + (["--corrupt"] if corrupt else []))
    if trace:
        probes = last_json([bindir / "probes", "--seed", seed])
        res["metrics"].update(probes["metrics"])
        res["points"].update(probes["points"])
        err, anchor = paper_err(res["points"])
        log(f"paper_err_pct = {err:.2f}% (worst anchor: {anchor})")
        res["metrics"]["paper_err_pct"] = {"value": err, "unit": "%"}
    return res


def check(res, trace):
    """Reduce to the contract's keys; the error list is empty when sound."""
    errors = []
    metrics = {}
    for spec in SPEC["per_layer" if trace else "end_to_end"]:
        m = res["metrics"].get(spec["name"])
        if m is None or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            errors.append(f"metric {spec['name']} missing or not finite: {m}")
        elif m["unit"] != spec["unit"]:
            errors.append(f"metric {spec['name']} has unit {m['unit']}, expected {spec['unit']}")
        else:
            metrics[spec["name"]] = m
    if res["failed"] or not res["correct"]:
        errors.append(f"{res['failed']} of {res['attempted']} ops failed")
    out = {k: res[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = metrics
    return out, errors


def show(workload, out):
    log(f"--- {workload}: {out['attempted']} ops, {out['failed']} failed")
    for name, m in out["metrics"].items():
        log(f"  {name:42s} {m['value']:16.4f} {m['unit']}")


def repeat_check(bindir, seed, seconds):
    """Full suite twice; wall within bounds, virt and counts exact."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    # Virtual time is bit-identical where one thread books each resource.
    # rpc_mix (two NICs sharing each node's PCI bus) and bulk_overlap (rail
    # threads) book from racing threads: the model admits ~0.2% jitter. The
    # forwarding points of paper_curves race harder (gateway threads) and
    # pull its geometric mean by a few percent.
    virt_tolerance = {"rpc_mix": 0.01, "bulk_overlap": 0.01, "paper_curves": 0.05}
    bad = 0
    for w in WORKLOADS:
        runs = []
        for _ in range(2):
            e2e, _ = check(run_one(bindir, w, seed, seconds, False), False)
            traced = run_one(bindir, w, seed, seconds, True)
            runs.append((e2e["metrics"], traced))
        log(f"--- {w}")
        rows = [(n, runs[0][0][n]["value"], runs[1][0][n]["value"], bounds[n]) for n in bounds]
        v = [r[1]["metrics"]["op_virt_us"]["value"] for r in runs]
        rows.append(("op_virt_us", v[0], v[1], virt_tolerance.get(w, 0.0)))
        for k in sorted(runs[0][1]["counts"]):
            # Mailbox and completion-queue spin counters follow the host
            # scheduler; every other count is exact.
            exact = not k.startswith(("mailbox_", "cq_spins"))
            c = [r[1]["counts"][k] for r in runs]
            if exact and w != "bulk_overlap":
                rows.append((f"count.{k}", c[0], c[1], 0.0))
        for name, a, b, bound in rows:
            diff = abs(a - b) / max(abs(a), abs(b), 1e-300)
            ok = diff <= bound
            bad += not ok
            log(f"  {name:28s} {a:16.6g} {b:16.6g}  diff {100 * diff:7.3f}%  bound {100 * bound:5.1f}%  {'ok' if ok else 'FAIL'}")
    if bad:
        sys.exit(f"run.py: repeat check failed on {bad} row(s)")
    log("repeat check passed")


def self_test(seconds):
    """A flipped byte in a received payload must fail the command."""
    cmd = [sys.executable, __file__, "--workload", "pingpong_64b", "--seed", "1",
           "--seconds", str(seconds), "--trace", "0", "--corrupt"]
    code = subprocess.run(cmd, stdout=subprocess.DEVNULL).returncode
    if code == 0:
        sys.exit("run.py: self-test FAILED: corrupted payload went unnoticed")
    log(f"self-test passed: corrupted run exited with {code}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--repeat-check", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    bindir = build()
    if args.self_test:
        return self_test(min(args.seconds, 2))
    if args.repeat_check:
        return repeat_check(bindir, args.seed, args.seconds)
    failed = []
    for w in [args.workload] if args.workload else WORKLOADS:
        res = run_one(bindir, w, args.seed, args.seconds, args.trace, args.corrupt)
        out, errors = check(res, args.trace)
        show(w, out)
        failed += [f"{w}: {e}" for e in errors]
        print(json.dumps(out), flush=True)
    if failed:
        sys.exit("run.py: " + "; ".join(failed))


if __name__ == "__main__":
    main()

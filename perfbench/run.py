#!/usr/bin/env python3
"""Benchmark of the QMA simulator: two campaign workloads, measured end
to end through the shipped `campaign` binary and attributed to layers by
a separate traced in-process run.

Run from the repository root:

    python3 perfbench/run.py --workload fig7_campaign --seed 2021 \\
        --seconds 45 --trace 0

`--trace 0` repeats the workload's campaign for `--seconds` and reports
the end-to-end metrics; `--trace 1` runs the traced in-process probe and
reports the per-layer metrics. Both check the campaign's artifacts. The
last line of standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.

The script builds what it runs (`cargo build --release --offline`) into
`$CARGO_TARGET_DIR`, default `.bench_build/`, and keeps its work files
in `.bench_work/`, both under the repository root.
"""

import argparse
import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_DIR = os.path.join(HERE, "golden")
WORK_DIR = os.path.join(ROOT, ".bench_work")

# Golden artifacts are kept for this seed only; any other seed is
# checked against the paper's semantics instead.
DEFAULT_SEED = 2021
# Timed campaign runs per end-to-end measurement, whatever --seconds
# says. One more untimed run goes first: the first process after the
# build reliably runs slow on a vCPU that was idle.
MIN_TIMED_RUNS = 3
# Campaign runs in a traced measurement (they give the wall time the
# runner's busy share is taken against).
TRACE_CAMPAIGN_RUNS = 3


class Workload:
    """One campaign spec, the checks its artifacts must pass, and how
    many set-ups the probe times after each campaign run (a fixed count,
    not a time budget; see the probe's `setup`)."""

    def __init__(self, spec, configs, replications, check, setups):
        self.spec = spec
        self.configs = configs
        self.replications = replications
        self.check = check
        self.setups = setups


def check_fig7(rows):
    """QMA's PDR beats both CSMA variants at every rate delta >= 10."""
    pdr = {}
    for row in rows:
        key = dict(kv.split("=", 1) for kv in row["config_key"].split(";"))
        pdr[(float(key["delta"]), key["mac"])] = float(row["pdr_mean"])
    losses = [
        f"delta={delta:g}: qma {pdr[(delta, 'qma')]} vs {mac} {pdr[(delta, mac)]}"
        for (delta, mac) in sorted(pdr)
        if mac != "qma" and delta >= 10 and pdr[(delta, "qma")] <= pdr[(delta, mac)]
    ]
    return not losses, "; ".join(losses) or "qma ahead at every delta >= 10"


def pdr_check(low, high):
    def check(rows):
        pdr = float(rows[0]["pdr_mean"])
        return low < pdr < high, f"pdr {pdr} (want {low} < pdr < {high})"

    return check


FIG7_SPEC = """\
# The paper's Fig. 7 grid: hidden-node PDR against the rate delta.
[campaign]
name = "fig7_campaign"
scenario = "hidden_node"
seed = {seed}
replications = 15

[fixed]
nodes = 3
packets = 1000

[grid]
delta = [1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 25.0, 50.0, 100.0]
mac = ["qma", "slotted_csma", "unslotted_csma"]
"""

GRID_SPEC = """\
# A 100 x 100 lattice; every node unicasts to its tree parent.
[campaign]
name = "grid_10k"
scenario = "massive"
seed = {seed}
replications = 1

[fixed]
topology = "grid"
nodes = 10000
mac = "qma"
delta = 2.0
packets = 5
duration_s = 5
"""

WORKLOADS = {
    "fig7_campaign": Workload(FIG7_SPEC, 27, 15, check_fig7, setups=201),
    "grid_10k": Workload(GRID_SPEC, 1, 1, pdr_check(0.5, 1.0), setups=15),
}

# name -> unit, in report order.
END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "core.q_update_f32_ns": "ns",
    "core.q_update_fixed16_ns": "ns",
    "core.decide_complete_ns": "ns",
    "des.wheel_push_pop_ns": "ns",
    "des.heap_push_pop_ns": "ns",
    "des.events": "count",
    "des.past_clamps": "count",
    "phy.tx_roundtrip_ns": "ns",
    "phy.collisions": "count",
    "phy.clean_receptions": "count",
    "phy.clean_ratio": "ratio",
    "mac.timer_ns": "ns",
    "mac.frame_ns": "ns",
    "mac.tx_end_ns": "ns",
    "mac.cca_ns": "ns",
    "mac.enqueue_ns": "ns",
    "mac.calls": "count",
    "mac.tx_attempts": "count",
    "mac.drops_retry": "count",
    "mac.delivered_per_attempt": "ratio",
    "netsim.build_s": "s",
    "netsim.run_s": "s",
    "netsim.collect_s": "s",
    "netsim.ns_per_event": "ns",
    "netsim.dispatch_self_ns_per_event": "ns",
    "netsim.unexplained_ns_per_event": "ns",
    "upper.ns_per_call": "ns",
    "upper.calls": "count",
    "topo.build_s": "s",
    "scenarios.rep_p50_ms": "ms",
    "scenarios.rep_p90_ms": "ms",
    "bench.runner_busy_share": "ratio",
    "bench.campaign_overhead_s": "s",
    "trace.overhead_pct": "%",
    "trace.clock_ns": "ns",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------- stats


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, pct):
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------- build


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Builds the `campaign` binary and the probe; returns their paths."""
    for needed in ("Cargo.toml", "crates/bench", os.path.join("perfbench", "probe")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"{needed} is missing under {ROOT}: not a QMA checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "qma-bench", "--bin", "campaign"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "probe", "Cargo.toml")],
    ]
    for cmd in commands:
        try:
            rc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode
        except OSError as e:
            raise BenchError(f"cannot run cargo: {e}") from e
        if rc != 0:
            raise BenchError(f"build failed ({rc}): {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "campaign"), os.path.join(release, "perfbench-probe")


# ---------------------------------------------------------------- runs


def spawn_and_wait(argv, stdout_path, stderr_path):
    """Runs argv to completion; returns (exit code, seconds, peak RSS MB)."""
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss / 1024.0


def read_text(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def read_bytes(path):
    """The file's bytes, or b"" when it does not exist."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return b""


def run_campaign(binary, name, wl_dir):
    """One untraced campaign run from spec to published artifacts."""
    out_dir = os.path.join(wl_dir, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    argv = [binary, os.path.join(wl_dir, "spec.toml"), "--out-dir", out_dir]
    rc, wall, rss = spawn_and_wait(
        argv, os.path.join(wl_dir, "campaign.out"), os.path.join(wl_dir, "campaign.err"))
    csv_bytes = read_bytes(os.path.join(out_dir, f"{name}.csv"))
    return {"rc": rc, "wall_s": wall, "peak_rss_mb": rss, "csv": csv_bytes,
            "json_ok": os.path.exists(os.path.join(out_dir, f"{name}.json")),
            "stderr": read_text(os.path.join(wl_dir, "campaign.err"))}


def parse_rows(csv_bytes):
    return list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8", "replace"))))


def check_campaign(name, run, seed, first_csv):
    """Checks one campaign run's artifacts.

    Returns (replications attempted, replications failed, checks), where
    each check is (name, passed, detail).
    """
    wl = WORKLOADS[name]
    rows = parse_rows(run["csv"])
    complete = [r for r in rows if r.get("replications") == str(wl.replications)]
    missing = wl.configs - len(complete)
    checks = [
        ("exit_code", run["rc"] == 0, f"campaign exited {run['rc']}"),
        ("artifacts", run["json_ok"] and missing == 0 and "# FAILED" not in run["stderr"],
         f"{len(complete)}/{wl.configs} configs complete, json {run['json_ok']}"),
    ]
    if missing == 0:
        checks.append(("semantics", *wl.check(complete)))
    else:
        checks.append(("semantics", False, "artifacts incomplete"))
    if seed == DEFAULT_SEED:
        golden = os.path.join(GOLDEN_DIR, f"{name}.csv")
        same = read_bytes(golden) == run["csv"]
        checks.append(("golden", same, f"csv {'matches' if same else 'differs from'} {golden}"))
    if first_csv is not None:
        checks.append(("deterministic", run["csv"] == first_csv,
                       "csv identical to this invocation's first run"))
    attempted = wl.configs * wl.replications
    failed = max(missing, 0) * wl.replications
    return attempted, failed, checks


def events_total(csv_bytes):
    return sum(int(r["events_total"]) for r in parse_rows(csv_bytes))


def campaign_runs(binary, name, seed, wl_dir, min_runs, deadline, between=None):
    """Repeats the campaign until `deadline` (and at least `min_runs`),
    calling `between()` after each run."""
    runs, checks = [], []
    attempted = failed = 0
    while len(runs) < min_runs or time.perf_counter() < deadline:
        run = run_campaign(binary, name, wl_dir)
        if between:
            between()
        first = runs[0]["csv"] if runs else None
        a, f, c = check_campaign(name, run, seed, first)
        attempted += a + len(c)
        failed += f + sum(1 for _, ok, _ in c if not ok)
        checks.extend(c)
        runs.append(run)
    return runs, checks, attempted, failed


def probe(probe_bin, wl_dir, *args):
    """Runs the single-threaded probe pinned to one CPU: migrations
    between CPUs otherwise dominate its microsecond-scale timings."""
    out, err = os.path.join(wl_dir, "probe.out"), os.path.join(wl_dir, "probe.err")
    argv = [probe_bin, args[0], os.path.join(wl_dir, "spec.toml"), *args[1:]]
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        rc, _, _ = spawn_and_wait(argv, out, err)
    finally:
        os.sched_setaffinity(0, cpus)
    if rc != 0:
        raise BenchError(f"probe {args[0]} failed ({rc}): {read_text(err).strip()}")
    return json.loads(read_text(out))


# ---------------------------------------------------------------- metrics


def summarize(samples):
    q1, q3 = quartiles(samples)
    return {"median": median(samples), "q1": q1, "q3": q3, "n": len(samples),
            "samples": samples}


def end_to_end_metrics(runs, setup_samples):
    """Medians over the campaign runs (and over the set-up samples)."""
    events = events_total(runs[0]["csv"])
    samples = {
        "wall_s": [r["wall_s"] for r in runs],
        "events_per_s": [events / r["wall_s"] for r in runs],
        "setup_s": setup_samples,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    return {name: summarize(samples[name]) for name in END_TO_END}


def per_layer_metrics(t, campaign_wall_s, threads):
    """Reduces the probe's raw trace to the per-layer metrics."""
    rp = {name: median(samples) for name, samples in t["replay"].items()}
    ev = t["events"]
    mac = t["mac"]
    mac_calls = sum(calls for calls, _ in mac.values())
    mac_ns = sum(ns for _, ns in mac.values())
    up_calls, up_ns = t["upper"]
    run_ns = t["run_plain_s"] * 1e9
    # Callback time with the wrappers' own clock reads taken out.
    callbacks_ns = mac_ns + up_ns - (mac_calls + up_calls) * rp["clock_pair_ns"]
    wheel_events = t["subslot_ticks"]
    explained_ns = (wheel_events * rp["wheel_push_pop_ns"]
                    + (ev - wheel_events) * rp["heap_push_pop_ns"]
                    + t["tx_attempts"] * rp["tx_roundtrip_ns"]
                    + t["qma_ticks"] * rp["decide_complete_ns"])
    rep_ms = [s * 1e3 for s in t["rep_s"]]
    busy_s = sum(t["rep_s"])
    per_call = lambda span: ratio(span[1], span[0])  # noqa: E731
    values = {
        "core.q_update_f32_ns": rp["q_update_f32_ns"],
        "core.q_update_fixed16_ns": rp["q_update_fixed16_ns"],
        "core.decide_complete_ns": rp["decide_complete_ns"],
        "des.wheel_push_pop_ns": rp["wheel_push_pop_ns"],
        "des.heap_push_pop_ns": rp["heap_push_pop_ns"],
        "des.events": ev,
        "des.past_clamps": t["past_clamps"],
        "phy.tx_roundtrip_ns": rp["tx_roundtrip_ns"],
        "phy.collisions": t["collisions"],
        "phy.clean_receptions": t["clean_receptions"],
        "phy.clean_ratio": ratio(t["clean_receptions"], t["clean_receptions"] + t["collisions"]),
        "mac.timer_ns": per_call(mac["timer"]),
        "mac.frame_ns": per_call(mac["frame"]),
        "mac.tx_end_ns": per_call(mac["tx_end"]),
        "mac.cca_ns": per_call(mac["cca"]),
        "mac.enqueue_ns": per_call(mac["enqueue"]),
        "mac.calls": mac_calls,
        "mac.tx_attempts": t["tx_attempts"],
        "mac.drops_retry": t["drops_retry"],
        "mac.delivered_per_attempt": ratio(t["tx_delivered"], t["tx_attempts"]),
        "netsim.build_s": median(t["sim_build_s"]),
        "netsim.run_s": t["run_plain_s"],
        "netsim.collect_s": t["collect_s"],
        "netsim.ns_per_event": ratio(run_ns, ev),
        "netsim.dispatch_self_ns_per_event": ratio(run_ns - callbacks_ns, ev),
        "netsim.unexplained_ns_per_event": ratio(run_ns - explained_ns, ev),
        "upper.ns_per_call": ratio(up_ns, up_calls),
        "upper.calls": up_calls,
        "topo.build_s": median(t["topo_build_s"]),
        "scenarios.rep_p50_ms": percentile(rep_ms, 50),
        "scenarios.rep_p90_ms": percentile(rep_ms, 90),
        "bench.runner_busy_share": ratio(busy_s, campaign_wall_s * threads),
        "bench.campaign_overhead_s": campaign_wall_s - busy_s / threads,
        "trace.overhead_pct": 100.0 * (ratio(t["run_traced_s"], t["run_plain_s"]) - 1.0),
        "trace.clock_ns": rp["clock_pair_ns"],
    }
    return {name: values[name] for name in PER_LAYER}


# ---------------------------------------------------------------- report


def command_output(argv):
    try:
        r = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def runner_threads():
    env = os.environ.get("RAYON_NUM_THREADS", "")
    if env.isdigit() and int(env) > 0:
        return int(env)
    return len(os.sched_getaffinity(0))


def provenance(threads):
    cpu = "unknown"
    try:
        for line in read_text("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # Only a repository rooted exactly here names this tree's commit.
    top = command_output(["git", "rev-parse", "--show-toplevel"])
    commit = None
    if top and os.path.realpath(top) == os.path.realpath(ROOT):
        commit = command_output(["git", "rev-parse", "HEAD"])
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "rustc": command_output(["rustc", "--version"]) or "unknown",
        "git_commit": commit or "unknown",
        "threads": threads,
    }


def print_report(report):
    print(f"# provenance {json.dumps(report['provenance'], sort_keys=True)}")
    print(f"# workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{report['campaign_runs']} campaign run(s)")
    for name, m in report["metrics"].items():
        if "median" in m:
            print(f"  {name:<34} {m['median']:>16.6g} {m['unit']:<6}"
                  f" (q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
        else:
            print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    verdicts = {}
    for check, ok, detail in report["checks"]:
        passed, total, last = verdicts.get(check, (0, 0, ""))
        verdicts[check] = (passed + ok, total + 1, detail if not ok else last or detail)
    for check, (passed, total, detail) in verdicts.items():
        print(f"  check {check:<14} {'pass' if passed == total else 'FAIL'}"
              f" ({passed}/{total}) {detail}")
    print(f"  failed_share {report['failed']}/{report['attempted']}")


def measure(name, args):
    if not 0 <= args.seed < 2**63:
        raise BenchError("--seed must be in [0, 2^63)")
    if args.update_golden and args.seed != DEFAULT_SEED:
        raise BenchError(f"golden artifacts are kept for --seed {DEFAULT_SEED} only")
    start = time.perf_counter()
    campaign_bin, probe_bin = build()
    wl_dir = os.path.join(WORK_DIR, name)
    os.makedirs(wl_dir, exist_ok=True)
    with open(os.path.join(wl_dir, "spec.toml"), "w") as f:
        f.write(WORKLOADS[name].spec.format(seed=args.seed))
    threads = runner_threads()
    measure_start = time.perf_counter()
    log(f"built in {measure_start - start:.1f}s; measuring {name} for {args.seconds}s")

    if args.trace:
        runs, checks, attempted, failed = campaign_runs(
            campaign_bin, name, args.seed, wl_dir, TRACE_CAMPAIGN_RUNS, 0)
        t = probe(probe_bin, wl_dir, "trace")
        agree = not t["mismatches"]
        checks.append(("trace_equal", agree,
                       "; ".join(t["mismatches"]) or "traced = untraced = run_scenario"))
        same_events = t["events"] == events_total(runs[0]["csv"])
        checks.append(("trace_events", same_events,
                       f"probe {t['events']} events, artifacts {events_total(runs[0]['csv'])}"))
        attempted += 2
        failed += (not agree) + (not same_events)
        wall = median([r["wall_s"] for r in runs])
        values = per_layer_metrics(t, wall, threads)
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}
    else:
        # Set-up is sampled between campaign runs, so it sees the same
        # spread of host conditions as the runs themselves.
        setup = []
        sample_setup = lambda: setup.extend(  # noqa: E731
            probe(probe_bin, wl_dir, "setup", str(WORKLOADS[name].setups))["setup_s"])
        runs, checks, attempted, failed = campaign_runs(
            campaign_bin, name, args.seed, wl_dir, 1 + MIN_TIMED_RUNS,
            measure_start + args.seconds, sample_setup)
        metrics = end_to_end_metrics(runs[1:], setup)
        for k, m in metrics.items():
            m["unit"] = END_TO_END[k]

    if args.update_golden:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(os.path.join(GOLDEN_DIR, f"{name}.csv"), "wb") as f:
            f.write(runs[0]["csv"])
        log(f"wrote golden artifact for {name}")

    report = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(threads), "campaign_runs": len(runs),
        "metrics": metrics, "checks": checks, "attempted": attempted, "failed": failed,
    }
    with open(os.path.join(wl_dir, f"report_trace{args.trace}.json"), "w") as f:
        json.dump(report, f, indent=1)
    print_report(report)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["median"] if "median" in m else m["value"],
                        "unit": m["unit"]} for k, m in metrics.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help=f"one of {', '.join(WORKLOADS)}, or `all` to run each in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden/<workload>.csv from this run (use the default seed)")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            if name not in WORKLOADS:
                raise BenchError(f"unknown workload {name!r}; one of {', '.join(WORKLOADS)}")
            measure(name, args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())

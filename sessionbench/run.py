#!/usr/bin/env python3
"""Tuning-session benchmark for the STELLAR reproduction.

Builds `session_bench` (this directory's CMake project over ../src), runs it
on one workload and prints one JSON result as the last line of stdout:

    python3 sessionbench/run.py --workload tune-data --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of the layer pass. `--workload all` runs every workload
both ways and prints every metric (no JSON line). Build products and
artifacts (span traces, self-time tables) go to $CARGO_TARGET_DIR (default
.bench_build)/sessionbench under the working directory.
"""
import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["tune-data", "tune-meta", "fleet", "tune-traced"]
RUN_TIMEOUT_S = 170
MIB = 1024.0 * 1024.0

E2E_UNITS = {
    "setup_s": "s",
    "session_s_p50": "s",
    "session_s_p90": "s",
    "sessions_per_s": "1/s",
    "peak_rss_mb": "MB",
    "speedup_p50": "x",
    "iters_to_5pct": "count",
    "completed_share": "ratio",
}

# Layer metric -> (unit, end-to-end metrics it should move, workloads where
# it does most / little). BENCHMARK.json's schema has no room for the map,
# so it lives here and is printed with every layer pass.
LAYERS = {
    "sim.run_s": ("s", "session_s_p50, sessions_per_s", "tune-meta, tune-data / fleet"),
    "sim.events": ("count", "session_s_p50, sessions_per_s", "tune-meta, tune-data / fleet"),
    "sim.us_per_event": ("us", "session_s_p50, sessions_per_s", "tune-meta, tune-data / fleet"),
    "pfs.data_rpcs": ("count", "explains sim.us_per_event", "tune-data / tune-meta"),
    "pfs.meta_rpcs": ("count", "explains sim.us_per_event", "tune-meta / tune-data"),
    "pfs.lock_misses": ("count", "explains sim.us_per_event", "tune-meta / tune-data"),
    "pfs.lock_waits": ("count", "explains sim.us_per_event", "tune-data / tune-meta"),
    "pfs.reada_prefetched_mb": ("MB", "explains sim.us_per_event", "tune-data / tune-meta"),
    "pfs.reada_useful_share": ("ratio", "explains sim.us_per_event", "tune-data / tune-meta"),
    "pfs.page_hit_mb": ("MB", "explains sim.us_per_event", "tune-data / tune-meta"),
    "harness.validate_s": ("s", "session_s_p50", "tune-data, tune-meta / fleet (no validation)"),
    "harness.parallel_eff": ("ratio", "session_s_p50", "tune-data, tune-meta / fleet"),
    "extract.s": ("s", "setup_s; session_s_p50 on fleet", "fleet / tune-meta"),
    "extract.calls_per_session": ("count", "setup_s; session_s_p50 on fleet", "fleet / tune-meta"),
    "workloads.gen_s": ("s", "setup_s; session_s_p50 on fleet", "fleet / tune-meta"),
    "darshan.characterize_s": ("s", "session_s_p50, sessions_per_s", "fleet / tune-meta"),
    "dataframe.tables_s": ("s", "session_s_p50, sessions_per_s", "fleet / tune-meta"),
    "agents.analysis_s": ("s", "session_s_p50, sessions_per_s", "fleet / tune-meta"),
    "dfquery.queries": ("count", "session_s_p50, sessions_per_s", "fleet / tune-meta"),
    "agents.decide_s": ("s", "session_s_p50, sessions_per_s (residual)", "fleet / tune-meta"),
    "llm.calls": ("count", "session_s_p50, completed_share", "fleet / tune-*"),
    "llm.tokens_in": ("count", "session_s_p50, completed_share", "fleet / tune-*"),
    "llm.cached_share": ("ratio", "session_s_p50, completed_share", "fleet / tune-*"),
    "llm.retries": ("count", "session_s_p50, completed_share", "fleet / tune-*"),
    "llm.wasted_share": ("ratio", "session_s_p50, completed_share", "fleet / tune-*"),
    "exp.recall_s": ("s", "iters_to_5pct, sessions_per_s", "fleet / tune-* (unused)"),
    "exp.warm_share": ("ratio", "iters_to_5pct, sessions_per_s", "fleet / tune-* (unused)"),
    "exp.warm_confirmed_share": ("ratio", "iters_to_5pct, sessions_per_s", "fleet / tune-* (unused)"),
    "exp.store_records": ("count", "iters_to_5pct, sessions_per_s", "fleet / tune-* (unused)"),
    "exp.store_order_drift": ("count", "iters_to_5pct, sessions_per_s", "fleet / tune-* (unused)"),
    "journal.append_s": ("s", "sessions_per_s, session_s_p90", "fleet / tune-*"),
    "journal.bytes": ("bytes", "sessions_per_s, session_s_p90", "fleet / tune-*"),
    "service.commit_s": ("s", "sessions_per_s, session_s_p90", "fleet / tune-*"),
    "service.coalesced_share": ("ratio", "sessions_per_s, session_s_p90", "fleet / tune-*"),
    "obs.records_per_session": ("count", "session_s_p50, peak_rss_mb", "tune-traced / others (tracer off)"),
    "obs.dropped": ("count", "session_s_p50, peak_rss_mb", "tune-traced / others (tracer off)"),
    "obs.trace_mb": ("MB", "session_s_p50, peak_rss_mb", "tune-traced / others (tracer off)"),
    "obs.export_s": ("s", "session_s_p50, peak_rss_mb", "tune-traced / others (tracer off)"),
    "obs.overhead_x": ("x", "session_s_p50, peak_rss_mb", "tune-traced / others (tracer off)"),
    "layers.residual_share": ("ratio", "quality of the split itself", "all"),
}

# Figures that must repeat exactly for a seed: a difference is a program
# defect, never noise.
EXACT_E2E = ["speedup_p50", "iters_to_5pct", "completed_share"]
EXACT_LAYER = [
    "sim.events", "pfs.data_rpcs", "pfs.meta_rpcs", "pfs.lock_misses", "pfs.lock_waits",
    "pfs.reada_prefetched_mb", "pfs.reada_useful_share", "pfs.page_hit_mb",
    "dfquery.queries", "extract.calls_per_session", "llm.calls", "llm.tokens_in",
    "llm.cached_share", "llm.retries", "llm.wasted_share", "exp.warm_share",
    "exp.warm_confirmed_share", "exp.store_records", "journal.bytes",
    "service.coalesced_share", "obs.records_per_session", "obs.dropped",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "sessionbench")


def build():
    """Configures and builds session_bench; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    with open(logfile, "w") as logf:
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode != 0:
                shutil.rmtree(os.path.join(out, "CMakeFiles"), ignore_errors=True)
                if os.path.exists(os.path.join(out, "CMakeCache.txt")):
                    os.remove(os.path.join(out, "CMakeCache.txt"))
                return None, logfile
        jobs = str(min(4, os.cpu_count() or 1))
        cmd = ["cmake", "--build", out, "--target", "session_bench", "-j", jobs]
        if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode != 0:
            return None, logfile
    return os.path.join(out, "session_bench"), logfile


def run_binary(binary, workload, seed, seconds, trace, outdir):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", outdir]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("session_bench exited %d: %s" % (proc.returncode, proc.stderr.strip()))
    return [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]


def percentile(values, p):
    """Linear-interpolated percentile, p in [0, 1]."""
    xs = sorted(values)
    rank = p * (len(xs) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def ratio(num, den):
    return num / den if den else 0.0


# ------------------------------------------------------------ end to end ----

def quality(sessions):
    """speedup_p50: median speedup per workload kind, geometric mean over
    kinds, so the figure cannot jump between kinds' clusters with the mix.
    iters_to_5pct: mean over every session."""
    by_kind = {}
    for kind, facts in sessions:
        by_kind.setdefault(kind, []).append(facts["speedup"])
    medians = [statistics.median(v) for v in by_kind.values()]
    return {
        "speedup_p50": statistics.geometric_mean(medians),
        "iters_to_5pct": statistics.mean(f["iters"] for _, f in sessions),
    }


def e2e_tune(lines, problems):
    sessions = [l for l in lines if l["type"] == "session"]
    kinds = []
    for s in sessions:
        if s["kind"] not in kinds:
            kinds.append(s["kind"])
    # A run covers every kind on one or more generated job inputs (variants);
    # each (kind, variant) pair is one input whose sessions must agree.
    first = {}
    for s in sessions:
        if not s["ok"]:
            problems.append("%s session %d: %s" % (s["kind"], s["index"], s["problem"]))
        ref = first.setdefault((s["kind"], s["variant"]), s)
        if s["digest"] != ref["digest"]:
            problems.append("%s input %d: session %d result differs from session %d (digest "
                            "%s vs %s)" % (s["kind"], s["variant"], s["index"], ref["index"],
                                           s["digest"], ref["digest"]))
    inputs = sorted(first, key=lambda kv: (kinds.index(kv[0]), kv[1]))
    # Each kind counts once, so a two-mode mix cannot land in the gap
    # between modes depending on how many sessions the clock allowed.
    by_kind = {k: [s["seconds"] for s in sessions if s["kind"] == k] for k in kinds}
    rss = {i: statistics.median(s["rss_mb"] for s in sessions
                                if (s["kind"], s["variant"]) == i) for i in inputs}
    metrics = {
        "session_s_p50": statistics.mean(statistics.median(v) for v in by_kind.values()),
        "session_s_p90": statistics.mean(percentile(v, 0.9) for v in by_kind.values()),
        # One client, closed loop: a round of one session per kind.
        "sessions_per_s": len(kinds) / sum(statistics.mean(v) for v in by_kind.values()),
        # The peak over the run's inputs of their median session peak.
        "peak_rss_mb": max(rss.values()),
    }
    metrics.update(quality([(k, first[(k, v)]["facts"]) for k, v in inputs]))
    ok = sum(1 for s in sessions if s["ok"])
    digest = hashlib.sha256("".join(first[i]["digest"] for i in inputs).encode()).hexdigest()[:16]
    return metrics, len(sessions), len(sessions) - ok, digest, len(sessions)


def e2e_fleet(lines, problems):
    repeats = [l for l in lines if l["type"] == "fleet_repeat"]
    attempted = failed = 0
    first = {}
    for r in repeats:
        attempted += r["submitted"] + r["rejected"]
        bad = r["failed"] + r["interrupted"] + r["rejected"] + r["not_ok"]
        failed += bad
        if bad:
            problems.append("fleet repeat %d: %d sessions failed, interrupted, rejected or "
                            "below 1x" % (r["index"], bad))
        if r["fresh"] + r["coalesced"] != r["submitted"]:
            problems.append("fleet repeat %d: fresh %d + coalesced %d != submitted %d"
                            % (r["index"], r["fresh"], r["coalesced"], r["submitted"]))
        if r["completed"] != r["submitted"]:
            problems.append("fleet repeat %d: %d of %d sessions completed"
                            % (r["index"], r["completed"], r["submitted"]))
        ref = first.setdefault(r["plan"], r)
        for key in ("digest", "submitted", "fresh", "coalesced"):
            if r[key] != ref[key]:
                problems.append("fleet repeat %d: %s %s differs from repeat %d's %s (same "
                                "schedule)" % (r["index"], key, r[key], ref["index"], ref[key]))
    if len(first) == len(repeats):
        problems.append("no fleet schedule ran twice, so nothing was checked for repeats")
    latencies = [x for r in repeats for x in r["latencies"]]
    plans = [first[p] for p in sorted(first)]
    # Each schedule counts once, however many of its fleets the clock allowed.
    by_plan = [[x for r in repeats if r["plan"] == p for x in r["latencies"]]
               for p in sorted(first)]
    metrics = {
        "session_s_p50": statistics.mean(statistics.median(v) for v in by_plan),
        "session_s_p90": statistics.mean(percentile(v, 0.9) for v in by_plan),
        "sessions_per_s": sum(r["submitted"] for r in repeats) / sum(r["seconds"] for r in repeats),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in repeats),
    }
    metrics.update(quality([(f["kind"], f) for r in plans for f in r["facts"]]))
    digest = hashlib.sha256("".join(r["digest"] for r in plans).encode()).hexdigest()[:16]
    counts = " ".join("%d/%d/%d" % (r["submitted"], r["fresh"], r["coalesced"]) for r in plans)
    return metrics, attempted, failed, digest, len(latencies), counts


def end_to_end(workload, lines, problems):
    counts = None
    if workload == "fleet":
        metrics, attempted, failed, digest, samples, counts = e2e_fleet(lines, problems)
    else:
        metrics, attempted, failed, digest, samples = e2e_tune(lines, problems)
    metrics["setup_s"] = statistics.median(l["seconds"] for l in lines if l["type"] == "setup")
    metrics["completed_share"] = ratio(attempted - failed, attempted)
    info = {"digest": digest, "session samples": samples,
            "failed_share": ratio(failed, attempted)}
    if counts:
        info["submitted/fresh/coalesced per schedule"] = counts
    return metrics, attempted, failed, info


# ------------------------------------------------------------ layer pass ----

def span_tables(spans):
    """Per-name total and self time (duration minus direct children)."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
    total, self_time, calls = {}, {}, {}
    for s in spans:
        d = s["end"] - s["start"]
        total[s["name"]] = total.get(s["name"], 0.0) + d
        self_time[s["name"]] = self_time.get(s["name"], 0.0) + d - children.get(s["id"], 0.0)
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    return total, self_time, calls


def chrome_trace(spans):
    events = []
    for s in spans:
        events.append({"name": s["name"], "cat": "bench", "ph": "X", "pid": 1, "tid": 1,
                       "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
                       "args": {"session": s["session"], "id": s["id"], "parent": s["parent"]}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def layer_pass(workload, lines, problems, outdir):
    spans = [l for l in lines if l["type"] == "span"]
    cells = [l for l in lines if l["type"] == "layer"]
    total, self_time, calls = span_tables(spans)
    n = len(cells)
    counts = {k: sum(c["counts"][k] for c in cells) for k in cells[0]["counts"]}
    facts = [c["facts"] for c in cells]

    def fsum(key):
        return sum(f.get(key, 0.0) for f in facts)

    if counts["replay_mismatches"]:
        problems.append("%d replayed simulator runs differ from the session's own "
                        "measurements" % counts["replay_mismatches"])
    replay_parts = ["extract", "sim.run", "darshan.characterize", "dataframe.tables",
                    "agents.analysis", "exp.recall"]
    m = {
        "sim.run_s": total.get("sim.run", 0.0) / n,
        "sim.events": counts["events"] / n,
        "sim.us_per_event": ratio(total.get("sim.run", 0.0), counts["events"]) * 1e6,
        "pfs.data_rpcs": counts["data_rpcs"] / n,
        "pfs.meta_rpcs": counts["meta_rpcs"] / n,
        "pfs.lock_misses": counts["lock_misses"] / n,
        "pfs.lock_waits": counts["lock_waits"] / n,
        "pfs.reada_prefetched_mb": counts["reada_prefetched_bytes"] / MIB / n,
        "pfs.reada_useful_share": ratio(counts["reada_consumed_bytes"],
                                        counts["reada_prefetched_bytes"]),
        "pfs.page_hit_mb": counts["page_hit_bytes"] / MIB / n,
        "extract.s": total.get("extract", 0.0) / n,
        "workloads.gen_s": total.get("workloads.gen", 0.0) / n,
        "darshan.characterize_s": total.get("darshan.characterize", 0.0) / n,
        "dataframe.tables_s": total.get("dataframe.tables", 0.0) / n,
        "agents.analysis_s": total.get("agents.analysis", 0.0) / n,
        "dfquery.queries": fsum("dfquery_queries") / n,
        "llm.calls": fsum("llm_calls") / n,
        "llm.tokens_in": fsum("llm_tokens_in") / n,
        "llm.cached_share": ratio(fsum("llm_cached_tokens"), fsum("llm_tokens_in")),
        "llm.retries": fsum("llm_retries") / n,
        "llm.wasted_share": ratio(fsum("llm_wasted_calls"),
                                  fsum("llm_calls") + fsum("llm_wasted_calls")),
        "exp.recall_s": total.get("exp.recall", 0.0) / n,
    }
    zero = ["harness.validate_s", "harness.parallel_eff", "exp.warm_share",
            "exp.warm_confirmed_share", "exp.store_records", "exp.store_order_drift",
            "journal.append_s", "journal.bytes", "service.commit_s", "service.coalesced_share",
            "obs.records_per_session", "obs.dropped", "obs.trace_mb", "obs.export_s",
            "obs.overhead_x"]
    for k in zero:
        m[k] = 0.0
    if workload == "fleet":
        summary = next(l for l in lines if l["type"] == "fleet_layer")
        repeats = [l for l in lines if l["type"] == "fleet_repeat"]
        submitted = summary["submitted"]
        tune_s = total.get("tune", 0.0)
        decide = tune_s - fsum("replayed_seconds") - total.get("journal.append", 0.0)
        session_s = total.get("session", 0.0)
        m.update({
            "extract.calls_per_session": summary["extract_calls"] / submitted,
            "exp.warm_share": ratio(summary["warm_recalled"], summary["fresh"]),
            "exp.warm_confirmed_share": ratio(summary["warm_confirmed"], summary["warm_recalled"]),
            "exp.store_records": summary["store_records"],
            "exp.store_order_drift": sum(1 for r in repeats
                                         if r["store_digest"] != repeats[0]["store_digest"]),
            "journal.append_s": total.get("journal.append", 0.0) / n,
            "journal.bytes": summary["journal_bytes"] / submitted,
            "service.commit_s": statistics.mean(summary["commit_seconds"]),
            "service.coalesced_share": summary["coalesced"] / submitted,
        })
        for r in repeats:
            if r["digest"] != repeats[0]["digest"]:
                problems.append("fleet repeat %d: result documents differ from repeat 0"
                                % r["index"])
        info = {"digest": repeats[0]["digest"],
                "fleet repeats compared for drift": len(repeats),
                "store digests": sorted(set(r["store_digest"] for r in repeats))}
    else:
        tune_s = fsum("tune_seconds")
        decide = tune_s - fsum("replayed_seconds")
        session_s = fsum("session_seconds")
        threads = facts[0]["validate_threads"]
        m.update({
            "extract.calls_per_session": fsum("extract_calls") / n,
            "harness.validate_s": fsum("validate_seconds") / n,
            "harness.parallel_eff": ratio(fsum("repeat_serial_seconds"),
                                          fsum("validate_seconds") * threads),
        })
        if workload == "tune-traced":
            m.update({
                "obs.records_per_session": fsum("trace_records") / n,
                "obs.dropped": fsum("trace_dropped") / n,
                "obs.trace_mb": fsum("trace_bytes") / MIB / n,
                "obs.export_s": fsum("export_seconds") / n,
                "obs.overhead_x": ratio(session_s, fsum("untraced_seconds")),
            })
        info = {"layer sessions": n}
    m["agents.decide_s"] = decide / n
    m["layers.residual_share"] = ratio(decide, session_s)

    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "spans.trace.json"), "w") as f:
        json.dump(chrome_trace(spans), f)
    rows = ["%-24s %7s %12s %12s" % ("span", "calls", "total_s", "self_s")]
    for name in sorted(total, key=lambda k: -self_time[k]):
        rows.append("%-24s %7d %12.6f %12.6f" % (name, calls[name], total[name], self_time[name]))
    rows.append("%-24s %7s %12.6f %12s" % ("agents.decide (residual)", "-", decide, "-"))
    with open(os.path.join(outdir, "self_time.txt"), "w") as f:
        f.write("\n".join(rows) + "\n")
    info["span artifacts"] = outdir
    info["self time"] = rows
    if workload != "fleet":
        info["digest"] = hashlib.sha256(
            "".join(f["digest"] for f in facts).encode()).hexdigest()[:16]
    attempted = n
    failed = 0
    return m, attempted, failed, info


# --------------------------------------------------------- exact repeats ----

def check_repeat(binary, workload, seed, trace, values, problems):
    """Compares this run's deterministic figures with the last run of the
    same binary, workload, seed and pass; names every one that differs."""
    with open(binary, "rb") as f:
        binary_id = hashlib.sha256(f.read()).hexdigest()
    path = os.path.join(build_dir(), "repeat", "%s-s%s-t%s.json" % (workload, seed, trace))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        if old.get("binary") == binary_id:
            for key, value in values.items():
                if key in old["values"] and old["values"][key] != value:
                    problems.append("not repeatable: %s was %r, now %r (same binary and seed)"
                                    % (key, old["values"][key], value))
    with open(path, "w") as f:
        json.dump({"binary": binary_id, "values": values}, f)


# ------------------------------------------------------------------ main ----

def run_one(binary, workload, seed, seconds, trace):
    outdir = os.path.join(build_dir(), "out", "%s-s%s-t%s" % (workload, seed, trace))
    lines = run_binary(binary, workload, seed, seconds, trace, outdir)
    problems = []
    if trace:
        metrics, attempted, failed, info = layer_pass(workload, lines, problems, outdir)
        exact = {k: metrics[k] for k in EXACT_LAYER}
        units = {k: LAYERS[k][0] for k in LAYERS}
    else:
        metrics, attempted, failed, info = end_to_end(workload, lines, problems)
        exact = {k: metrics[k] for k in EXACT_E2E}
        units = E2E_UNITS
    exact["digest"] = info.get("digest")
    exact["service counts"] = info.get("submitted/fresh/coalesced per schedule")
    check_repeat(binary, workload, seed, trace, exact, problems)
    shutil.rmtree(os.path.join(outdir, "fleet"), ignore_errors=True)
    shutil.rmtree(os.path.join(outdir, "fleet-setup"), ignore_errors=True)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed if not problems else max(failed, 1),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, info, problems


def report(workload, trace, result, info, problems):
    print("== %s (%s) ==" % (workload, "layer pass" if trace else "end to end"))
    for name, m in result["metrics"].items():
        extra = ""
        if trace:
            extra = "  moves %s; most/least: %s" % (LAYERS[name][1], LAYERS[name][2])
        print("  %-26s %14.6g %-6s%s" % (name, m["value"], m["unit"], extra))
    for key, value in info.items():
        if isinstance(value, list):
            print("  %s:" % key)
            for row in value:
                print("    %s" % row)
        else:
            print("  %s: %s" % (key, value))
    for p in problems:
        print("  CHECK FAILED: %s" % p)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary, logfile = build()
    if binary is None:
        log("session_bench build failed; see %s" % logfile)
        with open(logfile) as f:
            log(f.read()[-4000:])
        return 1
    try:
        if args.workload == "all":
            ok = True
            for workload in WORKLOADS:
                for trace in (0, 1):
                    result, info, problems = run_one(binary, workload, args.seed,
                                                     args.seconds, trace)
                    report(workload, trace, result, info, problems)
                    ok = ok and result["correct"]
            return 0 if ok else 1
        result, info, problems = run_one(binary, args.workload, args.seed, args.seconds,
                                         args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, StopIteration, KeyError) as e:
        log("session_bench run failed: %r" % (e,))
        return 1
    report(args.workload, args.trace, result, info, problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

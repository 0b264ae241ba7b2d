#!/usr/bin/env python3
"""The repository benchmark: LULESH workloads measured end to end.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sedov-s30 --seed 1 --seconds 30 --trace 0

The first run builds the repository's libraries, through its top-level
CMake project, and the harness into .bench_build/perfbench.  The seed generates the workload's inputs; the
program sees only those.  With --trace 0 the end-to-end metrics are
reported, with --trace 1 the per-layer metrics from a traced run.  Every
job's answer is checked.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
HARNESS = BUILD_DIR / "perfbench_cpp"

# The workloads are specified at 4 worker threads; never more than the
# machine offers.
MAX_THREADS = 4

# The published LULESH 2.0 result for the s=30 Sedov problem run to
# stoptime.  Symmetry: the solution is symmetric under any permutation of
# the element indices; round-off leaves relative differences near 1e-12,
# a broken kernel leaves differences many orders larger.
PUBLISHED_S30 = {"cycles": 932, "e0": "2.025075e+05"}
SYMMETRY_MAX_REL = 1e-8

# Region maps of a run, one per job, repeated when the run has more jobs;
# they are picked at evenly spaced EOS-load quantiles of CANDIDATE_MAPS
# drawn maps, so that two seeds give runs of nearly the same load mix.
JOB_SEEDS = 48
CANDIDATE_MAPS = 240
GOLDEN = (math.sqrt(5) - 1) / 2
STOPTIME = 10**6  # cycle cap that the s=10 and s=30 runs never reach

# Each workload: the problem the seed's inputs are drawn around, how its
# answer is checked, and where its layer probes look.  README.md says why
# each workload was chosen and which layer metric should move which
# end-to-end metric.  Every traced run also probes the dist layer on the
# published problem (see harness.cpp, run_dist_job).
WORKLOADS = {
    "sedov-s30": {
        "problem": {"size": 30, "regions": 11, "balance": 1, "cost": 1, "cycles": STOPTIME},
        "check": "published",
        "snapshot_cycle": 466,
        "probe_cycles": 60,
    },
    "eos-heavy": {
        "problem": {"size": 30, "regions": 21, "balance": 2, "cost": 20, "cycles": 120},
        "check": "serial",
        "snapshot_cycle": 30,
        "probe_cycles": 60,
    },
    "small-s10": {
        "problem": {"size": 10, "regions": 11, "balance": 1, "cost": 1, "cycles": STOPTIME},
        "check": "serial",
        "shared_runtime": True,
        "snapshot_cycle": 115,
        "probe_cycles": 231,
    },
}

END_TO_END = [
    ("grind_us", "us"),
    ("time_to_solution_s", "s"),
    ("cycle_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]


def make_inputs(workload, seed):
    """The workload's inputs for one run, drawn from the seed alone.

    region_seeds holds CANDIDATE_MAPS drawn maps; quantile_pick keeps
    JOB_SEEDS of them and stratified_order orders those, and job j of the
    run uses the j % JOB_SEEDS-th.  The region map sets how much EOS work a
    cycle has (the EOS repetitions per element vary by up to 2x between
    maps on s=30, far more on s=10), so one map per job, many jobs per run,
    keeps the run's median from resting on one draw."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    inputs = dict(spec["problem"])
    inputs["region_seeds"] = [rng.randrange(1, 2**31) for _ in range(CANDIDATE_MAPS)]
    inputs["threads"] = min(MAX_THREADS, os.cpu_count() or 1)
    return inputs


def quantile_pick(seeds, loads, k):
    """k of the seeds with their loads, one at the middle of each of k equal
    load-rank bands.  Drawn directly, 48 maps leave the run's load mix to
    chance: the median EOS load of two seeds' draws differed by 7% on
    eos-heavy, whose job grind follows the load (correlation 0.84-0.93)."""
    ranked = sorted(zip(loads, seeds))
    picked = [ranked[(2 * i + 1) * len(ranked) // (2 * k)] for i in range(k)]
    return [s for _, s in picked], [load for load, _ in picked]


def stratified_order(seeds, loads):
    """The seeds ordered so that every prefix of the jobs spreads evenly
    over the EOS load of the drawn maps: ranked by load, then visited along
    the golden-ratio sequence from the middle rank.  A run of six jobs then
    has loads from across the range, not six draws that may all be light."""
    ranked = [s for _, s in sorted(zip(loads, seeds))]
    order, seen, i = [], set(), 0
    while len(order) < len(ranked):
        rank = int((0.5 + i * GOLDEN) % 1.0 * len(ranked))
        if rank not in seen:
            seen.add(rank)
            order.append(ranked[rank])
        i += 1
    return order


def percentile(samples, q):
    """Nearest-rank percentile, reported only when at least ten samples lie
    beyond it; returns (value, count) or raises ValueError."""
    n = len(samples)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        raise ValueError(f"p{round(q * 100)} needs 10 samples beyond it; "
                         f"{n} samples leave {n - rank}")
    return sorted(samples)[rank - 1], n


def check_job(job, check, ref=None):
    """Returns None when the job's answer is right, else the reason."""
    if job["status"] != "ok":
        return f"status {job['status']}: {job['error']}"
    # The Sedov solution is symmetric at every cycle, whatever the problem
    # options; a kernel defect that the serial driver shares breaks it.
    if not job["sym_max_rel"] <= SYMMETRY_MAX_REL:
        return f"symmetry max rel diff {job['sym_max_rel']:.3e} > {SYMMETRY_MAX_REL:.0e}"
    if check == "published":
        if job["cycles"] != PUBLISHED_S30["cycles"]:
            return f"{job['cycles']} cycles, expected {PUBLISHED_S30['cycles']}"
        if f"{job['e0']:.6e}" != PUBLISHED_S30["e0"]:
            return f"e(0)={job['e0']:.6e}, expected {PUBLISHED_S30['e0']}"
        return None
    if job["cycles"] != ref["cycles"]:
        return f"{job['cycles']} cycles, serial {ref['cycles']}"
    if job["e0"] != ref["e0"] or job["digest"] != ref["digest"]:
        return (f"state differs from serial (e(0) {job['e0']!r} vs {ref['e0']!r}, "
                f"digest {job['digest']} vs {ref['digest']})")
    return None


def cycle_p90(cycle_ms, jobs):
    """Median over the run's ok jobs of each job's p90 cycle time, with the
    number of cycles it rests on.  cycle_ms holds every timed cycle of the
    run, in job order.  Pooled over the run, the p90 would mostly say which
    region maps the seed drew, since a map's typical cycle can cost twice
    another's; per job it is the slow tail of one problem."""
    p90s, start = [], 0
    for job in jobs:
        n = job["timed_cycles"]
        if job["status"] == "ok":
            p90s.append(percentile(cycle_ms[start:start + n], 0.90)[0])
        start += n
    if start != len(cycle_ms) or not p90s:
        raise ValueError(f"{len(cycle_ms)} cycle times do not split into "
                         f"{len(jobs)} jobs with an ok one among them")
    return statistics.median(p90s), len(cycle_ms)


def job_grind_us(job):
    return job["timed_s"] * 1e6 / (job["zones"] * max(1, job["timed_cycles"]))


def end_to_end_metrics(out, jobs):
    """The end-to-end metrics of one untraced run, with sample counts."""
    return {
        "grind_us": (statistics.median(job_grind_us(j) for j in jobs), len(jobs)),
        "time_to_solution_s": (statistics.median(j["solve_s"] for j in jobs), len(jobs)),
        "cycle_ms.p90": cycle_p90(out["cycle_ms"], jobs),
        "setup_s": (statistics.median(out["setup_s"]), len(out["setup_s"])),
        "peak_rss_mb": (out["peak_rss_mb"], 1),
    }


def tracing_overhead(jobs):
    """Median over the traced run's job pairs (untraced, then traced, on one
    region map) of traced grind / untraced grind - 1."""
    pairs = list(zip(jobs[0::2], jobs[1::2]))
    if not pairs or any(u["traced"] or not t["traced"] for u, t in pairs):
        raise ValueError("a traced run alternates untraced and traced jobs")
    return statistics.median(job_grind_us(t) / job_grind_us(u) - 1 for u, t in pairs)


def layer_metrics(out, jobs, spec, dist_failures):
    """Per-layer metrics of a traced run, as (value, unit) pairs."""
    L = out["layers"]
    zones = out["zones"]
    m = {}
    k = L["lulesh.kernel"]
    for name in ("force_stress.ns_per_elem", "force_hourglass.ns_per_elem",
                 "kinematics.ns_per_elem", "monoq.ns_per_elem", "volume.ns_per_elem",
                 "constraints.ns_per_elem", "work_ns_per_zone_cycle"):
        m["lulesh.kernel." + name] = (k[name], "ns")
    m["lulesh.kernel.node.ns_per_node"] = (k["node.ns_per_node"], "ns")
    m["lulesh.kernel.eos.ns_per_elem_rep"] = (k["eos.ns_per_elem_rep"], "ns")
    for kern in ("force_stress", "force_hourglass", "eos"):
        # Computed from the declared access sets, not measured traffic.
        m[f"lulesh.kernel.{kern}.bytes_per_elem"] = (k[kern + ".bytes_per_elem"], "B")
        m[f"lulesh.kernel.{kern}.gbps"] = (k[kern + ".gbps"], "GB/s")
    m["lulesh.serial.grind_us"] = (L["lulesh.serial.grind_us"], "us")

    micro = L["amt.micro"]
    m["amt.task_ns"] = (micro["task_ns"], "ns")
    m["amt.barrier_ns"] = (micro["barrier_ns"], "ns")
    m["amt.replay_ns_per_node"] = (micro["replay_ns_per_node"], "ns")
    run = L["amt.run"]
    m["amt.tasks_per_cycle"] = (run["tasks_per_cycle"], "count")
    m["amt.productive_ratio"] = (run["productive_ratio"], "ratio")
    m["amt.idle_ms_per_cycle"] = (run["idle_ms_per_cycle"], "ms")
    m["amt.steals_per_cycle"] = (run["steals_per_cycle"], "count")

    for phase, ms in L["core.phase_ms"].items():
        m["core.phase_ms." + phase] = (ms, "ms")
    probe = L["core.probe"]
    m["core.critical_path_ms"] = (probe["critical_path_ms"], "ms")
    m["core.parallelism"] = (probe["parallelism"], "ratio")
    m["core.compile_ms"] = (probe["compile_ms"], "ms")

    m["reconcile.kernel_over_busy"] = (
        k["work_ns_per_zone_cycle"] * zones / run["busy_ns_per_cycle"], "ratio")

    # The paper's comparison over the same cycle window [1, probe_cycles).
    window = L["traced_cycle_ms"][: spec["probe_cycles"] - 1]
    tg_window_grind = statistics.fmean(window) * 1e3 / zones
    m["ompsim.grind_us"] = (L["ompsim.grind_us"], "us")
    m["ompsim.productive_ratio"] = (L["ompsim.productive_ratio"], "ratio")
    m["paper.speedup_vs_parallel_for"] = (L["ompsim.grind_us"] / tg_window_grind, "ratio")
    m["paper.speedup_vs_serial"] = (L["lulesh.serial.grind_us"] / tg_window_grind, "ratio")

    m["trace.overhead_share"] = (tracing_overhead(jobs), "ratio")

    d = L["dist.run"]
    cycles = max(1, d["cycles"])
    slabs = d["slabs"]
    epp = d["elems_per_plane"]
    # Per interior boundary and cycle: corner forces (6 arrays of 8
    # corners) and delv_zeta, each way, plus one CRC slot per message.
    bytes_per_boundary = 2 * 8 * ((6 * 8 * epp + 1) + (epp + 1))
    m["dist.cycle_ms.p50"] = (d["cycle_ms_p50"], "ms")
    m["dist.decomp_overhead"] = (d["decomp_overhead"], "ratio")
    m["dist.halo_msgs_per_cycle"] = (4 * (slabs - 1) + d["resends"] / cycles, "count")
    m["dist.halo_bytes_per_cycle"] = (bytes_per_boundary * (slabs - 1), "B")
    m["dist.resends_per_cycle"] = (d["resends"] / cycles, "count")
    m["dist.fail_ratio"] = (len(dist_failures) / len(d["jobs"]), "ratio")
    m["lulesh.ckpt.records"] = (d["records"], "count")
    m["lulesh.ckpt.bytes_per_record"] = (d["record_bytes"] / max(1, d["records"]), "B")
    m["lulesh.ckpt.overhead_share"] = (d["ckpt_over_plain"] - 1, "ratio")
    return m


def build():
    """Configures and builds the harness (quick when up to date)."""
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (BUILD_DIR / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", str(BUILD_DIR), "-j", str(MAX_THREADS)]):
        subprocess.run(cmd, check=True, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)


def harness(mode, inputs, extra=()):
    cmd = [str(HARNESS), mode]
    for key in ("size", "regions", "balance", "cost", "cycles"):
        cmd += ["--" + key, str(inputs[key])]
    if mode == "serial-ref":
        cmd += ["--region-seed", str(inputs["region_seeds"][0])]
    else:
        cmd += ["--region-seeds", ",".join(map(str, inputs["region_seeds"]))]
    cmd += [str(x) for x in extra]
    done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, timeout=170)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")
    spec = WORKLOADS[a.workload]
    load_at_start = os.getloadavg()[0]

    inputs = make_inputs(a.workload, a.seed)
    extra = ["--threads", inputs["threads"], "--seconds", a.seconds, "--trace", a.trace,
             "--probe-cycles", spec["probe_cycles"]]
    if "snapshot_cycle" in spec:
        extra += ["--snapshot-cycle", spec["snapshot_cycle"]]
    if spec.get("shared_runtime"):
        extra += ["--shared-runtime", 1]
    spans = BUILD_DIR / "spans" / f"{a.workload}.seed{a.seed}.json"
    if a.trace:
        extra += ["--spans-out", spans]
    try:
        build()
        spans.parent.mkdir(parents=True, exist_ok=True)
        loads = harness("eos-reps", inputs)["reps"]
        picked, picked_loads = quantile_pick(inputs["region_seeds"], loads, JOB_SEEDS)
        inputs["region_seeds"] = stratified_order(picked, picked_loads)
        ref = harness("serial-ref", inputs) if spec["check"] == "serial" else None
        out = harness("run", inputs, extra)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        sys.stderr.write(f"perfbench: {err}\n{err.stdout or ''}")
        return 1

    jobs = out["jobs"]
    failures = [(i, check_job(j, spec["check"], ref)) for i, j in enumerate(jobs)]
    failures = [(i, why) for i, why in failures if why is not None]

    env = dict(out["env"], nproc=os.cpu_count(), threads=inputs["threads"],
               loadavg_at_start=load_at_start)
    print(f"perfbench workload={a.workload} seed={a.seed} seconds={a.seconds} trace={a.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    shown = dict(inputs, region_seeds=f"{inputs['region_seeds'][:3]}... "
                                      f"({JOB_SEEDS} of {CANDIDATE_MAPS})")
    print("inputs: " + json.dumps(shown, sort_keys=True))
    for i, why in failures:
        print(f"answer check FAILED, job {i}: {why}")
    e0s = sorted({f"{j['e0']:.6e}" for j in jobs})
    print(f"answer check: {len(jobs) - len(failures)}/{len(jobs)} jobs ok "
          f"({spec['check']}; cycles {sorted({j['cycles'] for j in jobs})}, e(0) {e0s})")
    print(f"fail_ratio = {len(failures)}/{len(jobs)} = {len(failures) / len(jobs):.4f}")

    metrics = {}
    if a.trace:
        # The dist probe's jobs are not the workload's: their failures are
        # the dist.fail_ratio layer figure (README.md, "The dist probe").
        dist = out["layers"]["dist.run"]
        dist_failures = [why for why in (check_job(j, "published") for j in dist["jobs"])
                         if why is not None]
        for why in dist_failures:
            print(f"dist probe answer check FAILED: {why}")
        print(f"dist probe: {len(dist['jobs']) - len(dist_failures)}/{len(dist['jobs'])} "
              f"jobs ok, {dist['resends']:.0f} resends, {dist['recoveries']:.0f} recoveries")
        for name, (value, unit) in sorted(layer_metrics(out, jobs, spec, dist_failures).items()):
            print(f"  {name} = {value:.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
        for layer, sec in sorted(out["layers"]["self_s"].items()):
            print(f"  self time [{layer}] = {sec:.6g} s")
        print(f"  spans: {out['layers']['spans']:.0f}, written to {spans.relative_to(ROOT)}")
    else:
        units = dict(END_TO_END)
        for name, (value, n) in end_to_end_metrics(out, jobs).items():
            print(f"  {name} = {value:.6g} {units[name]} (n={n})")
            metrics[name] = {"value": value, "unit": units[name]}

    print(json.dumps({"correct": not failures, "attempted": len(jobs),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Campaign benchmark: cold set-up, long-case throughput, service round trips.

Run from the repository root::

    python3 perfbench/run.py --workload campaign_long --seed 0 --seconds 40 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``campaign_long``   LANS, 100 000 steps per case, 150 cases per campaign.
``service_mix``     ``repro serve-api`` and two closed-loop tenants
                    streaming SPV/RAC campaigns (2 000 steps x 8 cases).

Every campaign process or server starts fresh on its own
``ACCMOS_CACHE_DIR``, so its set-up is cold.  A run repeats that fixed
work, after a short warm-up, until ``--seconds`` of measured time have
passed (at least three processes, or two servers), reports medians,
checks outputs against the interpreted SSE engine, and prints one JSON
object as its last stdout line.  ``--trace 1`` instead runs one
untraced and one traced repetition and reports the per-layer split.

The benchmark reads and writes only inside the checkout: per-run state
lives under ``.perfbench/`` and is removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from collections import Counter

import service_mix
from workloads import CAMPAIGN

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKER = os.path.join(HERE, "worker.py")

SERVICE_CAMPAIGNS_PER_CLIENT = 40
MIN_REPEATS = {"campaign_long": 3, "service_mix": 2}
MAX_REPEATS = 8
WARM_UP_S = 6.0


def metric_units(kind: str) -> "dict[str, str]":
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics,
    read from the benchmark's own definition."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# process plumbing
# ----------------------------------------------------------------------
def fresh_env(state: str) -> dict:
    """Environment for one measured process: its own cache directory
    (artifacts and cost model) and temp directory, both in ``state``."""
    os.makedirs(os.path.join(state, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        ACCMOS_CACHE_DIR=os.path.join(state, "cache"),
        TMPDIR=os.path.join(state, "tmp"),
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONDONTWRITEBYTECODE="1",
    )
    env.pop("ACCMOS_NO_CACHE", None)
    return env


def warm_up() -> None:
    """Keep every CPU busy for :data:`WARM_UP_S` before measuring.

    After the host has idled, the first 10 s or so of work run up to a
    third slower, the compiled C loop included (see the noise record in
    ``README.md``).  A short spin on each CPU keeps that out of the
    first measured repetition.
    """
    code = ("import time\n"
            f"end = time.perf_counter() + {WARM_UP_S}\n"
            "while time.perf_counter() < end:\n    pass\n")
    spinners = [subprocess.Popen([sys.executable, "-c", code])
                for _ in os.sched_getaffinity(0)]
    for spinner in spinners:
        spinner.wait()


def run_worker(args: "list[str]", env: dict, timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {args[0]} exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def expected_executor(workload: str, fp: dict) -> dict:
    """The executor each campaign of a workload is recorded against on
    this host.

    Campaigns use the CLI defaults: thread-parallel in-process execution
    on min(4, os.cpu_count()) threads where shared objects load, else
    the serial warm-server rung.  Service campaigns set no rung knobs,
    so they run serially on the warm-server rung (checked per round by
    :func:`server_rung`).
    """
    if workload == "service_mix":
        return {"mode": "thread", "workers": 1}
    if fp.get("shared_objects") and fp.get("cpu_count", 1) > 1:
        return {"mode": "inproc-threads", "workers": min(4, fp["cpu_count"]),
                "fallbacks": 0}
    return {"mode": "thread", "workers": 1, "fallbacks": 0}


# ----------------------------------------------------------------------
# campaign_long
# ----------------------------------------------------------------------
def campaign_args(base_seed: int, *, campaigns: int, trace: bool,
                  gate: bool, rng: random.Random) -> "list[str]":
    args = ["campaign", "--base-seed", str(base_seed),
            "--trace", str(int(trace)), "--campaigns", str(campaigns)]
    if gate:
        seeds = sorted(rng.sample(
            range(base_seed, base_seed + CAMPAIGN["cases"]),
            CAMPAIGN["samples"]))
        args += ["--gate", "1",
                 "--sample-seeds", ",".join(map(str, seeds))]
    return args


def repetitions(a, workload: str, spent: "list[float]"):
    """Repetition indices and whether each one is traced.

    ``--trace 1``: one untraced repetition, then one traced one.
    Otherwise repeat until the measured seconds the caller appends to
    ``spent`` reach ``--seconds``, within the workload's minimum and
    :data:`MAX_REPEATS`.
    """
    if a.trace:
        yield 0, False
        yield 1, True
        return
    index = 0
    while index < MAX_REPEATS and (
        index < MIN_REPEATS[workload] or sum(spent) < a.seconds
    ):
        yield index, False
        index += 1


def run_campaigns(a, state: str) -> dict:
    rng = random.Random(a.seed)
    procs: "list[dict]" = []
    spent: "list[float]" = []
    for index, trace in repetitions(a, "campaign_long", spent):
        # The first campaign of the default seed starts at seed 1, where
        # the committed SSE record of campaign_long begins.
        base_seed = 1 + a.seed * 1_000_000 + index * 10_000
        sub = os.path.join(state, f"p{index}")
        result = run_worker(
            campaign_args(
                base_seed, campaigns=1 if a.trace else CAMPAIGN["campaigns"],
                trace=trace, gate=index == 0, rng=rng),
            fresh_env(sub), timeout=150,
        )
        shutil.rmtree(sub, ignore_errors=True)
        result["traced"] = trace
        procs.append(result)
        spent.append(sum(c.get("end_to_end_s", 0.0)
                         for c in result["campaigns"]))
    return summarize_campaigns(a, procs)


def summarize_campaigns(a, procs: "list[dict]") -> dict:
    fp = procs[0]["fingerprint"]
    expected = expected_executor("campaign_long", fp)
    gates = [g for p in procs for g in p.get("gates", [])]
    runs = [c for p in procs for c in p["campaigns"]]
    attempted = sum(c["attempted"] for c in runs) + sum(
        g["attempted"] for g in gates)
    failed = sum(c["failed"] for c in runs) + sum(g["failed"] for g in gates)
    executors = [c["executor"] for c in runs if c["error"] is None]
    mismatch = [e for e in executors if e != expected]

    untraced = [p for p in procs if not p["traced"]]
    cold = [p["campaigns"][0] for p in untraced
            if p["campaigns"][0]["error"] is None]
    warm = [c for p in untraced for c in p["campaigns"][1:]
            if c["error"] is None]
    timed = cold + warm
    metrics = {}
    if cold and warm:
        latency = statistics.median(c["end_to_end_s"] for c in warm)
        metrics = {
            "setup_s": statistics.median(c["setup_s"] for c in cold),
            "cases_per_s": statistics.median(c["cases_per_s"] for c in timed),
            # One campaign at a time: the rate is the reciprocal of the
            # latency, taken from the median so one slow campaign does
            # not skew it.
            "campaigns_per_s": 1.0 / latency,
            "campaign_latency_s": latency,
            "peak_rss_mb": statistics.median(
                p["peak_rss_mb"] for p in untraced),
        }
    report = {
        "workload": "campaign_long", "fingerprint": fp, "gates": gates,
        "attempted": attempted, "failed": failed,
        "executor": {"expected": expected, "observed": tally(executors),
                     "mismatch": bool(mismatch)},
        "errors": [c["error"] for c in runs if c["error"]],
        "metrics": metrics,
        "samples": {
            "cold_campaigns": len(cold), "warm_campaigns": len(warm),
            "cases_per_campaign": CAMPAIGN["cases"],
            "steps_per_case": CAMPAIGN["steps"],
        },
        "paper": [
            {"loop_only_s": c["loop_only_s"],
             "end_to_end_s": c["end_to_end_s"],
             "setup_s": c["setup_s"], "phase_s": c["phase_s"]}
            for c in cold
        ],
    }
    traced = [p for p in procs if p["traced"] and "layers" in p]
    if a.trace and traced and cold:
        t = traced[0]
        t_run, u_run = t["campaigns"][0], cold[0]
        layers = dict(t["layers"])
        layers.update({
            "paper.loop_only_s": t_run["loop_only_s"],
            "paper.end_to_end_s": t_run["end_to_end_s"],
            "tracing.overhead": (
                u_run["cases_per_s"] / t_run["cases_per_s"] - 1.0),
            "failed_frac": failed / max(1, attempted),
        })
        report["layers"] = layers
    return report


# ----------------------------------------------------------------------
# service workload
# ----------------------------------------------------------------------
def run_service(a, state: str) -> dict:
    rounds = []
    spent: "list[float]" = []
    for index, traced in repetitions(a, "service_mix", spent):
        sub = os.path.join(state, f"s{index}")
        round_ = service_mix.run_round(
            ROOT, sub, fresh_env(sub),
            base_seed=1 + a.seed * 1_000_000 + index * 100_000,
            campaigns_per_client=SERVICE_CAMPAIGNS_PER_CLIENT,
            traced=traced,
        )
        round_["traced"] = traced
        round_["state"] = sub
        rounds.append(round_)
        spent.append((round_["setup_s"] or 0.0) + round_["phase_s"])

    # Correctness gate on the last round's server cache (now warm).
    last = rounds[-1]
    rng = random.Random(a.seed)
    samples = []
    for model in service_mix.MODELS:  # one sampled campaign per model
        pool = [c for c in last["timed"] if c.ok
                and c.spec["model"] == f"bench:{model}"]
        if pool:
            c = rng.choice(pool)
            samples.append({
                "spec": c.spec,
                "outcome_frame": c.outcome_frame.decode("utf-8"),
                "first_case_frame": c.first_case_frame.decode("utf-8"),
            })
    path = os.path.join(last["state"], "samples.json")
    with open(path, "w") as fh:
        json.dump(samples, fh)
    gate = run_worker(["service-gate", "--samples", path],
                      fresh_env(last["state"]), timeout=120)
    for r in rounds:
        shutil.rmtree(r["state"], ignore_errors=True)
    return summarize_service(a, rounds, gate)


def summarize_service(a, rounds: "list[dict]", gate: dict) -> dict:
    fp = gate["fingerprint"]
    expected = expected_executor("service_mix", fp)
    gates = gate["gates"]
    everything = [c for r in rounds for c in r["warm"] + r["timed"]]
    attempted = len(everything) + sum(g["attempted"] for g in gates)
    failed = sum(1 for c in everything if not c.ok) + sum(
        g["failed"] for g in gates)

    executors = [
        {k: (s.get("scheduler_stats") or {}).get(k) for k in expected}
        for r in rounds for s in r["statuses"]
    ]
    rungs = [server_rung(r["statuses"]) for r in rounds]
    mismatch = [e for e in executors if e != expected] + [
        r for r in rungs if not r["ok"]]

    untraced = [r for r in rounds if not r["traced"]]
    timed = [c for r in untraced for c in r["timed"] if c.ok]
    phase = sum(r["phase_s"] for r in untraced)
    setups = [r["setup_s"] for r in untraced if r["setup_s"] is not None]
    metrics = {}
    if timed and setups:
        latencies = [c.latency_s for c in timed]
        metrics = {
            "setup_s": statistics.median(setups),
            "cases_per_s": len(timed) * service_mix.CASES / phase,
            "campaigns_per_s": len(timed) / phase,
            "campaign_latency_s": statistics.median(latencies),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in untraced),
        }
    report = {
        "workload": "service_mix", "fingerprint": fp, "gates": gates,
        "attempted": attempted, "failed": failed,
        "executor": {"expected": expected, "observed": tally(executors),
                     "rungs": rungs, "mismatch": bool(mismatch)},
        "errors": [c.error for c in everything if c.error][:5],
        "metrics": metrics,
        "samples": {"servers": len(untraced), "campaigns": len(timed),
                    "cases_per_campaign": service_mix.CASES,
                    "steps_per_case": service_mix.STEPS},
        "latency_p90_s": p90([c.latency_s for c in timed]),
        "rounds": [
            {"setup_s": r["setup_s"], "phase_s": r["phase_s"],
             "campaigns": len(r["timed"]),
             "latency_p50_s": statistics.median(
                 c.latency_s for c in r["timed"])}
            for r in untraced
        ],
    }
    traced = [r for r in rounds if r["traced"]]
    if a.trace and traced and untraced:
        report["layers"] = service_layers(
            traced[0], untraced[0], failed / max(1, attempted))
    return report


def server_rung(statuses: "list[dict]") -> dict:
    """Whether every chunk of every campaign of one server ran on a warm
    server.  The service's campaigns borrow one shared ``ServerPool``,
    so a campaign's own ``server_stats`` is empty; instead each chunk
    the scheduler dispatched must be exactly one pool acquisition
    (spawn or reuse), with no restart or server retired on error."""
    if not statuses:
        return {"campaigns": 0, "ok": False}
    pool = statuses[-1]["service"]["server_pool"]
    chunks = sum((s.get("scheduler_stats") or {}).get("chunks") or 0
                 for s in statuses)
    acquisitions = pool.get("spawns", 0) + pool.get("reuses", 0)
    faults = pool.get("restarts", 0) + pool.get("retired_error", 0)
    return {"campaigns": len(statuses), "chunks": chunks,
            "server_acquisitions": acquisitions, "faults": faults,
            "ok": chunks > 0 and acquisitions == chunks and not faults}


def tally(executors: "list[dict]") -> "list[dict]":
    """The distinct executors observed, each with its campaign count."""
    counts = Counter(json.dumps(e, sort_keys=True) for e in executors)
    return [{"campaigns": n, **json.loads(k)} for k, n in counts.items()]


def p90(values: "list[float]") -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else 0.0


def service_layers(t: dict, u: dict, failed_frac: float) -> dict:
    layers = dict(t["server_layers"] or {})
    timed = [c for c in t["timed"] if c.ok]
    pool = t["statuses"][-1]["service"]["server_pool"]
    sched = t["statuses"][-1].get("scheduler_stats") or {}
    u_rate = len([c for c in u["timed"] if c.ok]) / u["phase_s"]
    t_rate = len(timed) / t["phase_s"]
    layers.update({
        "runner.servers.spawns": pool.get("spawns", 0),
        "runner.servers.reuses": pool.get("reuses", 0),
        "runner.servers.restarts": pool.get("restarts", 0),
        "runner.scheduler.utilization": sched.get("utilization") or 0.0,
        "runner.scheduler.window": sched.get("window") or 0,
        "runner.scheduler.batch_size": sched.get("batch_size") or 0,
        "service.submit_ms": 1e3 * statistics.median(
            c.submit_s for c in timed),
        "service.admission_wait_ms": 1e3 * statistics.median(
            c.started - c.submitted for c in timed),
        "service.stream_ms": 1e3 * statistics.median(
            c.done - c.started for c in timed),
        "service.frame_bytes": statistics.median(
            c.frame_bytes for c in timed),
        "service.rss_growth_mb_per_100_campaigns": (
            100.0 * t["rss_growth_mb"] / max(1, len(t["timed"]))),
        "campaign_latency_p90_s": p90([c.latency_s for c in timed]),
        "failed_frac": failed_frac,
        "tracing.overhead": u_rate / t_rate - 1.0,
    })
    return layers


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def correct(report: dict) -> bool:
    return (
        report["failed"] == 0
        and not report["errors"]
        and not report["executor"]["mismatch"]
        and bool(report["gates"])
        and all(g["status"] in ("PASS", "SKIPPED") for g in report["gates"])
        and any(g["status"] == "PASS" for g in report["gates"])
    )


def print_report(report: dict, a, metrics: dict) -> None:
    fp = report["fingerprint"]
    print(f"workload {report['workload']}  seed {a.seed}  "
          f"trace {a.trace}")
    print(f"host: nproc={fp['nproc']}  cpu_count={fp['cpu_count']}  "
          f"compiler={fp['compiler']}  "
          f"python={fp['python']}  numpy={fp['numpy']}  "
          f"shared_objects={fp['shared_objects']}")
    ex = report["executor"]
    print(f"executor: expected {ex['expected']}")
    for observed in ex["observed"]:
        print(f"  observed {observed}")
    for rung in ex.get("rungs", []):
        print(f"  server rung {rung}")
    if ex["mismatch"]:
        print("EXECUTOR MISMATCH: this run used another executor than the "
              "one recorded for the workload; not comparable")
    for g in report["gates"]:
        if g["status"] == "SKIPPED":
            print(f"gate {g['name']}: SKIPPED({g['detail']})")
        else:
            print(f"gate {g['name']}: {g['status']}  [{g['detail']}]")
    for error in report["errors"]:
        print(f"error: {error}")
    print(f"samples: {report['samples']}")
    for row in report.get("paper", []):
        print(f"paper units: loop-only {row['loop_only_s']:.4f} s "
              f"(sum of in-binary loop time)  end-to-end "
              f"{row['end_to_end_s']:.3f} s (set-up {row['setup_s']:.3f} s "
              f"+ timed phase {row['phase_s']:.3f} s)")
    for row in report.get("rounds", []):
        print(f"server round: set-up {row['setup_s']:.3f} s, "
              f"{row['campaigns']} campaigns in {row['phase_s']:.3f} s, "
              f"median latency {row['latency_p50_s']:.4f} s")
    if "latency_p90_s" in report:
        print(f"campaign latency p90 (not gated): "
              f"{report['latency_p90_s']:.4f} s over "
              f"{report['samples']['campaigns']} campaigns")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["campaign_long", "service_mix"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "campaign.py")):
        print("perfbench: no repro sources under src/; run from a full "
              "checkout", file=sys.stderr)
        return 2
    # The load generator drives the service through its public client.
    sys.path.insert(0, os.path.join(ROOT, "src"))
    states = os.path.join(ROOT, ".perfbench")
    state = os.path.join(states, f"{a.workload}-{a.seed}-{os.getpid()}")
    os.makedirs(state, exist_ok=True)
    try:
        warm_up()
        if a.workload == "service_mix":
            report = run_service(a, state)
        else:
            report = run_campaigns(a, state)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(state, ignore_errors=True)
        try:
            os.rmdir(states)
        except OSError:
            pass  # another run still holds state there

    if a.trace:
        # A layer that does not run on this workload reads 0.
        units = metric_units("per_layer")
        values = {n: report.get("layers", {}).get(n, 0.0) for n in units}
    else:
        units = metric_units("end_to_end")
        values = report["metrics"]
    metrics = {n: (float(values[n]), u) for n, u in units.items()
               if n in values}
    print_report(report, a, metrics)
    if len(metrics) < len(units) or (a.trace and "layers" not in report):
        print("perfbench: a metric could not be measured", file=sys.stderr)
        return 1
    result = {
        "correct": correct(report),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

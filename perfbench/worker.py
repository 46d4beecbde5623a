"""One measured process of the benchmark, launched by ``run.py``.

Every measured campaign runs in a fresh interpreter with its own
``ACCMOS_CACHE_DIR`` (artifact cache and ``costmodel.json``), so each
one starts cold, as a user on a new or edited model does.  Subcommands:

``campaign``
    Run one fixed-work campaign through ``repro.campaign.iter_campaign``
    with the ``repro campaign`` CLI's default knobs, time it, and
    optionally run the correctness gate and the per-layer trace.
``service-gate``
    Check streamed ``serve-api`` records against local runs of the same
    specs, reusing the server's (warm) cache directory.
``serve``
    ``repro serve-api`` with the per-layer wrappers installed; writes
    the layer summary to a file when interrupted.

Each subcommand prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import LayerTrace, install  # noqa: E402
from workloads import CAMPAIGN  # noqa: E402

# Cases rerun one at a time to measure the C loop's thread inflation.
INFLATION_CASES = 32
# Telemetry counters bumped when a group drops below the in-process rungs.
FALLBACK_COUNTERS = ("engine.inproc.fallbacks",
                     "runner.inproc_threads.fallbacks")


def cli_campaign_knobs(model: str) -> dict:
    """The knobs ``repro campaign MODEL`` passes to ``run_campaign`` when
    no option is given, read from the CLI's own parser."""
    from repro.cli import build_parser

    args = build_parser().parse_args(["campaign", model])
    threads = None if args.threads in (None, "auto") else int(args.threads)
    return dict(
        workers=args.workers, mode=args.mode, batch_size=args.batch_size,
        serve=args.serve, inproc=args.inproc, threads=threads,
        window=args.window, adaptive=args.adaptive,
        scheduler=args.scheduler, timeout_seconds=args.timeout,
    )


def fingerprint() -> dict:
    import numpy

    from repro.codegen.driver import find_c_compiler, supports_shared_objects
    from repro.runner.cache import compiler_fingerprint

    compiler = find_c_compiler()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        # What the CLI's automatic thread count is derived from.
        "cpu_count": os.cpu_count(),
        "compiler": compiler_fingerprint(compiler) if compiler else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "shared_objects": supports_shared_objects(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# campaign
# ----------------------------------------------------------------------
def fallbacks(session) -> int:
    return int(sum(session.metrics.counter(n) for n in FALLBACK_COUNTERS))


def run_one(knobs, session, base_seed: int) -> dict:
    """One campaign from a model reference to its ``CampaignOutcome``."""
    import repro.schedule
    from repro.benchmarks import build_benchmark
    from repro.campaign import iter_campaign

    cases, steps = CAMPAIGN["cases"], CAMPAIGN["steps"]
    before = fallbacks(session)
    fold_times: "list[float]" = []
    start = time.perf_counter()
    try:
        prog = repro.schedule.preprocess(build_benchmark(CAMPAIGN["model"]))
        run = iter_campaign(
            prog, steps=steps, max_cases=cases,
            plateau_patience=cases, base_seed=base_seed, **knobs,
        )
        for _case in run:
            fold_times.append(time.perf_counter())
    except Exception as exc:  # noqa: BLE001 — reported as failed cases
        return {"error": f"{type(exc).__name__}: {exc}",
                "attempted": cases, "failed": cases}
    if len(fold_times) < 2:
        return {"error": f"only {len(fold_times)} case(s) folded",
                "attempted": cases, "failed": cases - len(fold_times)}
    outcome = run.outcome
    stats = outcome.scheduler_stats or {}
    short = sum(1 for c in outcome.cases if c.steps_run != steps)
    return {
        "error": None,
        "attempted": cases,
        "failed": (cases - len(fold_times)) + short,
        "setup_s": fold_times[0] - start,
        "cases_per_s": (
            (len(fold_times) - 1) / (fold_times[-1] - fold_times[0])),
        "phase_s": fold_times[-1] - fold_times[0],
        "end_to_end_s": fold_times[-1] - start,
        "loop_only_s": sum(c.wall_time for c in outcome.cases),
        "executor": {
            "mode": stats.get("mode"),
            "workers": stats.get("workers"),
            "fallbacks": fallbacks(session) - before,
        },
        # Kept in-process for the trace and the gates; not serialized.
        "_prog": prog, "_outcome": outcome, "_fold_times": fold_times,
    }


def cmd_campaign(a) -> dict:
    """The first campaign runs on a cold cache (its set-up is measured);
    each later one reruns on the warm artifact with a fresh, empty cost
    model, so no campaign's learned rates steer the next one.

    A telemetry session is on in every campaign process, traced or not,
    for its fallback counters (per-batch spans and per-case counters:
    microseconds against a 10 ms case)."""
    from repro import telemetry
    from repro.runner.costmodel import CostModelStore, set_default_cost_store

    session = telemetry.enable()
    trace = install(LayerTrace()) if a.trace else None
    knobs = cli_campaign_knobs(f"bench:{CAMPAIGN['model']}")
    runs = []
    for index in range(a.campaigns):
        if index:
            set_default_cost_store(CostModelStore(None))
        runs.append(run_one(
            knobs, session, a.base_seed + index * CAMPAIGN["cases"]))
        if runs[-1]["error"]:
            break
    result: dict = {"peak_rss_mb": peak_rss_mb(),
                    "fingerprint": fingerprint()}
    first = runs[0]
    if trace is not None:
        trace.restore()
        if not first["error"]:
            result["layers"] = campaign_layers(
                trace, first["_outcome"], first["_fold_times"])
            result["layers"]["inproc.fallbacks"] = (
                first["executor"]["fallbacks"])
    if a.gate and not first["error"]:
        result["gates"] = campaign_gates(
            a, first["_prog"], first["_outcome"], knobs)
    result["campaigns"] = [
        {k: v for k, v in run.items() if not k.startswith("_")}
        for run in runs
    ]
    return result


def mean_ms(values: "list[float]") -> float:
    return 1e3 * statistics.fmean(values) if values else 0.0


def layer_summary(trace: LayerTrace, n_cases: int) -> dict:
    """Self times and counts of every wrapped layer; per-case figures
    are divided by ``n_cases`` (the cases the campaign(s) folded)."""
    n = max(1, n_cases)
    return {
        "schedule.preprocess_s": trace.self_median("schedule.preprocess"),
        "instrument.plan_s": trace.self_median("instrument.plan"),
        "codegen.generate_s": trace.self_median("codegen.generate"),
        "codegen.c_source_bytes": max(
            trace.values.get("codegen.c_source_bytes", [0])),
        "codegen.gcc_s": sum(trace.values.get("codegen.gcc_s", [])),
        "runner.cache.misses": trace.counts["runner.cache.misses"],
        "runner.cache.hits": trace.counts["runner.cache.hits"],
        "inproc.load_s": trace.self_median("inproc.load"),
        "stimuli.generate_ms": 1e3 * trace.self_total("stimuli.generate") / n,
        "inproc.encode_ms": 1e3 * trace.self_total("inproc.encode") / n,
        "runner.campaign.fold_ms": (
            1e3 * trace.self_total("runner.campaign.fold") / n),
        "runner.scheduler.queue_wait_ms": mean_ms(
            trace.values.get("runner.scheduler.queue_wait_s", [])),
    }


def campaign_layers(trace, outcome, fold_times) -> dict:
    """The per-layer split of one traced campaign.  The C loop and the
    decode are the program's own per-case timings (``execute`` is the
    ``LoadedModel.run_case`` call, ``parse`` the ``decode_result``)."""
    stats = outcome.scheduler_stats or {}
    layers = layer_summary(trace, len(outcome.cases))
    execute = [c.timings.get("execute", 0.0) for c in outcome.cases]
    threads = stats.get("workers") or 1
    # C loops start as soon as the first instance has loaded.
    loaded = trace.first_end("inproc.load")
    exec_wall = fold_times[-1] - loaded if loaded is not None else 0.0
    c_loop_ms = mean_ms(execute)
    layers.update({
        "inproc.c_loop_ms": c_loop_ms,
        "inproc.decode_ms": mean_ms(
            [c.timings.get("parse", 0.0) for c in outcome.cases]),
        "inproc.c_share": (
            sum(execute) / (threads * exec_wall) if exec_wall > 0 else 0.0),
        "inproc.c_loop_inflation": c_loop_inflation(outcome, c_loop_ms),
        "runner.scheduler.utilization": stats.get("utilization") or 0.0,
        "runner.scheduler.window": stats.get("window") or 0,
        "runner.scheduler.batch_size": stats.get("batch_size") or 0,
    })
    return layers


def c_loop_inflation(outcome, campaign_c_ms: float) -> float:
    """Per-case C time in the campaign ÷ per-case C time of the same
    cases run one at a time on one instance."""
    import repro.schedule
    from repro.benchmarks import build_benchmark
    from repro.engines.accmos import compile_model
    from repro.engines.base import SimulationOptions
    from repro.stimuli.generators import default_stimuli

    seeds = [c.seed for c in outcome.cases[:INFLATION_CASES]]
    prog = repro.schedule.preprocess(build_benchmark(CAMPAIGN["model"]))
    options = SimulationOptions(steps=CAMPAIGN["steps"])
    model = compile_model(prog, options, artifact="shared")
    results = model.run_inproc(
        [(default_stimuli(prog, seed=s), options) for s in seeds], threads=1
    )
    serial = [r.extra.get("execute_seconds", 0.0) for r in results]
    if not serial or sum(serial) <= 0:
        return 0.0
    return campaign_c_ms / mean_ms(serial)


# ----------------------------------------------------------------------
# correctness gates
# ----------------------------------------------------------------------
def _gate(name, status, detail, attempted, failed) -> dict:
    return {"name": name, "status": status, "detail": detail,
            "attempted": attempted, "failed": failed}


def _one_case(prog, engine, seed, steps, knobs=None):
    from repro.campaign import run_campaign

    return run_campaign(
        prog, engine=engine, steps=steps, max_cases=1, plateau_patience=1,
        base_seed=seed, **(knobs or {}),
    )


def campaign_gates(a, prog, outcome, knobs) -> "list[dict]":
    """The campaign gate.  SSE needs minutes per 100k-step LANS case, so
    the campaign is checked against a committed SSE record, and sampled
    seeds against SSE over their first ``sample_steps`` steps."""
    from repro.campaign import run_campaign
    from repro.service.codec import case_record, encode, outcome_record

    gates = []
    with open(CAMPAIGN["reference"]) as fh:
        ref = json.load(fh)
    record = ref["record"]
    expected = json.loads(record)["cases"]
    if ref["base_seed"] == a.base_seed and ref["steps"] == CAMPAIGN["steps"]:
        got = [case_record(c) for c in outcome.cases[: len(expected)]]
        same = [encode(g) == encode(e) for g, e in zip(got, expected)]
        gates.append(_gate(
            "timed-prefix-vs-committed-sse",
            "PASS" if all(same) else "FAIL",
            f"first {len(expected)} timed cases vs committed SSE record",
            len(expected), same.count(False)))
    else:
        gates.append(_gate(
            "timed-prefix-vs-committed-sse", "SKIPPED",
            f"timed campaign starts at seed {a.base_seed}; the "
            f"committed record covers seed {ref['base_seed']}", 0, 0))
    rerun = run_campaign(
        prog, steps=ref["steps"], max_cases=ref["max_cases"],
        plateau_patience=ref["max_cases"], base_seed=ref["base_seed"],
        **knobs,
    )
    same = encode(outcome_record(rerun)) == record
    gates.append(_gate(
        "committed-sse-record", "PASS" if same else "FAIL",
        f"{ref['max_cases']} x {ref['steps']} steps from seed "
        f"{ref['base_seed']}, byte-compared", ref["max_cases"],
        0 if same else ref["max_cases"]))

    sample = [int(s) for s in a.sample_seeds.split(",")]
    bad = 0
    for seed in sample:
        sse = _one_case(prog, "sse", seed, CAMPAIGN["sample_steps"])
        acc = _one_case(prog, "accmos", seed, CAMPAIGN["sample_steps"],
                        knobs)
        if encode(outcome_record(sse)) != encode(outcome_record(acc)):
            bad += 1
    gates.append(_gate(
        "sampled-cases-vs-sse", "PASS" if bad == 0 else "FAIL",
        f"seeds {sample} (first {CAMPAIGN['sample_steps']} steps): SSE vs AccMoS "
        f"outcome records", len(sample), bad))
    return gates


# ----------------------------------------------------------------------
# service
# ----------------------------------------------------------------------
def cmd_service_gate(a) -> dict:
    """Byte-check sampled streamed campaigns against local runs."""
    from repro.campaign import run_campaign
    from repro.service.codec import case_record, encode, outcome_record
    from repro.service.spec import parse_spec

    with open(a.samples) as fh:
        samples = json.load(fh)
    if not samples:
        return {"gates": [_gate(
            "streamed-outcome-vs-run_campaign", "SKIPPED",
            "no completed campaign to sample", 0, 0)],
            "fingerprint": fingerprint()}
    gates = []
    bad_outcome = bad_first = bad_sse = 0
    for sample in samples:
        spec = parse_spec(sample["spec"])
        prog = spec.load_program()
        kwargs = spec.campaign_kwargs()
        local = run_campaign(prog, **kwargs)
        want = b'"outcome":' + encode(outcome_record(local)).encode()
        if want not in sample["outcome_frame"].encode("utf-8"):
            bad_outcome += 1
        base = kwargs["base_seed"]
        sse = _one_case(prog, "sse", base, kwargs["steps"])
        want = b'"case":' + encode(case_record(sse.cases[0])).encode()
        if want not in sample["first_case_frame"].encode("utf-8"):
            bad_first += 1
        knobs = {k: v for k, v in kwargs.items()
                 if k not in ("engine", "steps", "max_cases",
                              "plateau_patience", "base_seed")}
        acc = _one_case(prog, "accmos", base, kwargs["steps"], knobs)
        if encode(outcome_record(sse)) != encode(outcome_record(acc)):
            bad_sse += 1
    n = len(samples)
    gates.append(_gate(
        "streamed-outcome-vs-run_campaign",
        "PASS" if bad_outcome == 0 else "FAIL",
        f"{n} streamed outcome frames vs encode(outcome_record("
        f"run_campaign(spec)))", n, bad_outcome))
    gates.append(_gate(
        "streamed-first-case-vs-sse", "PASS" if bad_first == 0 else "FAIL",
        f"{n} streamed first-case frames vs SSE", n, bad_first))
    gates.append(_gate(
        "sampled-cases-vs-sse", "PASS" if bad_sse == 0 else "FAIL",
        f"{n} sampled cases: SSE vs AccMoS outcome records", n, bad_sse))
    return {"gates": gates, "fingerprint": fingerprint()}


def cmd_serve(a) -> None:
    """``repro serve-api`` under the layer wrappers."""
    trace = install(LayerTrace())
    from repro.cli import main

    try:
        main(["serve-api", "--port", "0"])
    finally:
        trace.restore()
        summary = layer_summary(
            trace, trace.calls("runner.campaign.fold"))
        # The program's own per-case parse timing; on this rung it is
        # the text-protocol parse_result.
        summary["engines.accmos.parse_ms"] = mean_ms(
            trace.values.get("timings.parse", []))
        # Written whole, then renamed: the load generator kills the
        # server as soon as this file exists.
        with open(a.layers_out + ".tmp", "w") as fh:
            json.dump(summary, fh)
        os.replace(a.layers_out + ".tmp", a.layers_out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("campaign")
    p.add_argument("--base-seed", type=int, required=True)
    p.add_argument("--campaigns", type=int, default=1)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--gate", type=int, default=0)
    p.add_argument("--sample-seeds", default="")
    p = sub.add_parser("service-gate")
    p.add_argument("--samples", required=True)
    p = sub.add_parser("serve")
    p.add_argument("--layers-out", required=True)
    a = parser.parse_args(argv)

    if a.cmd == "serve":
        cmd_serve(a)
        return 0
    result = cmd_campaign(a) if a.cmd == "campaign" else cmd_service_gate(a)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

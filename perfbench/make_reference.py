"""Regenerate the committed SSE reference record for ``campaign_long``.

The interpreted SSE engine needs several minutes per 100 000-step LANS
case (about ten minutes for the two cases here on one core), far too
long for a benchmark run, so its outcome record is computed once and
committed.  Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

``campaign_long`` byte-compares the AccMoS campaign over the same seeds
against ``record`` on every gated run.
"""

from __future__ import annotations

import json

from workloads import CAMPAIGN

SPEC = {"model": CAMPAIGN["model"], "engine": "sse",
        "steps": CAMPAIGN["steps"], "base_seed": 1, "max_cases": 2}


def main() -> None:
    from repro.benchmarks import build_benchmark
    from repro.campaign import run_campaign
    from repro.schedule import preprocess
    from repro.service.codec import encode, outcome_record

    outcome = run_campaign(
        preprocess(build_benchmark(SPEC["model"])), engine=SPEC["engine"],
        steps=SPEC["steps"], max_cases=SPEC["max_cases"],
        plateau_patience=SPEC["max_cases"], base_seed=SPEC["base_seed"],
    )
    doc = dict(SPEC, generated_by="perfbench/make_reference.py",
               record=encode(outcome_record(outcome)))
    with open(CAMPAIGN["reference"], "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

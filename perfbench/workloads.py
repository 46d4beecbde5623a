"""The fixed work of ``campaign_long``, shared by ``run.py`` (which
sizes and seeds the run) and ``worker.py`` (which runs the campaigns)."""

from __future__ import annotations

import os

HERE = os.path.dirname(os.path.abspath(__file__))

CAMPAIGN = {
    "model": "LANS", "steps": 100_000, "cases": 150,
    # Campaigns per process: one cold, then warm reruns.
    "campaigns": 3,
    # SSE needs minutes per 100k-step LANS case: check against a
    # committed SSE record, plus sampled seeds over a short horizon.
    "reference": os.path.join(HERE, "reference", "lans_100k_seed1.json"),
    "samples": 2, "sample_steps": 400,
}

"""The ``service_mix`` load: ``repro serve-api`` driven by two tenants.

One server subprocess per round, each on a fresh ``ACCMOS_CACHE_DIR``.
Two closed-loop clients, one per tenant, submit back-to-back campaigns
and stream each over the WebSocket until its ``outcome`` frame.  Specs
alternate SPV and RAC at a fixed size with no rung knobs set, so they
run on whatever rung the service picks by default.

A round has two phases:

* **set-up** -- from launching the server to the first ``case`` frame of
  the first campaign of *each* model (both clients start at once, so
  both compiles overlap, as they would for two users);
* **timed** -- every client then runs a fixed number of campaigns.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

MODELS = ("SPV", "RAC")
STEPS = 2000
CASES = 8


def spec_for(model: str, base_seed: int, tenant: str) -> dict:
    # plateau_patience >= max_cases: every campaign folds all its cases
    # (default stimuli saturate these models after one case).
    return {
        "model": f"bench:{model}", "steps": STEPS, "max_cases": CASES,
        "plateau_patience": CASES, "base_seed": base_seed, "tenant": tenant,
    }


def _proc_status(pid: int) -> dict:
    values = {}
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            key, _, rest = line.partition(":")
            if key in ("VmHWM", "VmRSS"):
                values[key] = int(rest.split()[0]) / 1024.0
    return values


class Campaign:
    """One submit-to-outcome round trip, timed from the client side.

    Never raises: a failed submit or stream leaves ``ok`` False and the
    reason in ``error``, and the campaign counts as failed.
    """

    def __init__(self, client, spec: dict) -> None:
        self.spec = spec
        self.id = None
        self.submit_s = self.latency_s = 0.0
        self.submitted = self.started = self.first_case = self.done = None
        self.frames: "list[bytes]" = []
        self.first_case_frame = self.outcome_frame = None
        self.ok = False
        self.error = None
        t0 = time.perf_counter()
        try:
            self._round_trip(client)
        except Exception as exc:  # noqa: BLE001 — counted as failed
            self.error = f"{type(exc).__name__}: {exc}"
        self.latency_s = (self.done or time.perf_counter()) - t0
        self.submit_s = (self.submitted or t0) - t0

    def _round_trip(self, client) -> None:
        self.id = client.submit(self.spec)
        self.submitted = time.perf_counter()
        for payload in client.stream_raw(self.id):
            now = time.perf_counter()
            self.frames.append(payload)
            event = json.loads(payload)
            kind = event.get("type")
            if kind == "started" and self.started is None:
                self.started = now
            elif kind == "case" and self.first_case is None:
                self.first_case = now
                self.first_case_frame = payload
            elif kind in ("outcome", "error"):
                self.done = now
                self.outcome_frame = payload
                outcome = event.get("outcome") or {}
                self.ok = (
                    kind == "outcome" and event.get("state") == "done"
                    and outcome.get("n_cases") == CASES
                )
                if not self.ok:
                    self.error = payload.decode("utf-8", "replace")[:300]
                return
        self.error = "stream closed before the outcome frame"

    @property
    def frame_bytes(self) -> int:
        return sum(len(frame) for frame in self.frames)


def run_round(
    root: str,
    state: str,
    env: dict,
    *,
    base_seed: int,
    campaigns_per_client: int,
    traced: bool,
) -> dict:
    """Start one server, set it up, run the timed phase, stop it."""
    from repro.service.client import ServiceClient

    layers_out = os.path.join(state, "server-layers.json")
    if traced:
        cmd = [sys.executable, os.path.join(root, "perfbench", "worker.py"),
               "serve", "--layers-out", layers_out]
    else:
        cmd = [sys.executable, "-m", "repro.cli", "serve-api", "--port", "0"]
    with open(os.path.join(state, "server.stderr"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=err,
            start_new_session=True,
        )
    try:
        line = proc.stdout.readline().decode()
        if not line.startswith("listening on "):
            raise RuntimeError(f"serve-api did not start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        client = ServiceClient(host, int(port), timeout=120.0)

        tenants = ("tenant-a", "tenant-b")
        seeds = iter(range(base_seed, base_seed + 10**6, CASES))
        seed_lock = threading.Lock()

        def next_spec(client_index: int, k: int) -> dict:
            model = MODELS[(client_index + k) % len(MODELS)]
            with seed_lock:
                seed = next(seeds)
            return spec_for(model, seed, tenants[client_index])

        # Set-up: each client's first campaign, one per model, at once.
        warm: "list[Campaign]" = [None, None]  # type: ignore[list-item]

        def warm_up(i: int) -> None:
            warm[i] = Campaign(client, next_spec(i, 0))

        _run_threads(warm_up, 2)
        firsts = [c.first_case for c in warm]
        setup_s = (
            max(firsts) - t0 if all(f is not None for f in firsts) else None
        )
        rss_after_setup = _proc_status(proc.pid)["VmRSS"]

        # Timed phase: one closed-loop client thread per tenant, in
        # lockstep, so each step pairs one SPV with one RAC campaign and
        # the mix does not drift with the clients' relative phase.
        done: "list[list[Campaign]]" = [[], []]
        step = threading.Barrier(2)

        def loop(i: int) -> None:
            for k in range(1, campaigns_per_client + 1):
                step.wait()
                done[i].append(Campaign(client, next_spec(i, k)))

        start = time.perf_counter()
        _run_threads(loop, 2)
        phase_s = time.perf_counter() - start
        timed = done[0] + done[1]
        mem = _proc_status(proc.pid)
        # Outside the timing: every campaign's status record, for the
        # executor it ran on; the last one also carries the final
        # counters of the server's shared pool.
        statuses = [client.status(c.id) for c in warm + timed if c.id]
    finally:
        _stop(proc, layers_out if traced else None)
    layers = None
    if traced and os.path.exists(layers_out):
        with open(layers_out) as fh:
            layers = json.load(fh)
    return {
        "setup_s": setup_s,
        "phase_s": phase_s,
        "warm": warm,
        "timed": timed,
        "statuses": statuses,
        "peak_rss_mb": mem["VmHWM"],
        "rss_growth_mb": mem["VmRSS"] - rss_after_setup,
        "server_layers": layers,
    }


def _run_threads(target, n: int) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _stop(proc: subprocess.Popen, wait_for: "str | None") -> None:
    """Stop the server and every process it started.

    ``serve-api`` returns on SIGINT but does not close its warm-server
    pool, so its interpreter then waits on the ``--serve`` children
    until their idle timeout.  The server runs in its own process group;
    once it has written ``wait_for`` (the traced server's layer summary,
    written on SIGINT), the whole group is killed.
    """
    if wait_for is not None and proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + 30
        while (not os.path.exists(wait_for) and proc.poll() is None
               and time.monotonic() < deadline):
            time.sleep(0.05)
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group is already gone
    proc.wait()
    proc.stdout.close()

"""The differential fuzzer: generator validity, oracle sensitivity, and
shrinker minimality.

The oracle's real catch rate is exercised end-to-end in
``test_fuzz_campaign.py``; here the components are pinned in isolation,
including with *seeded* divergences (a predicate or broken rung planted
on purpose) so the shrinker's contract — minimal, still-failing, valid —
is tested without depending on a live equivalence bug.
"""

from __future__ import annotations

import json

import pytest
from conftest import requires_cc

from repro.fuzz import (
    CaseSpec,
    available_rungs,
    build_model,
    build_stimuli,
    case_signature,
    drop_node,
    generate_case,
    run_case,
    shrink_case,
)
from repro.fuzz.generate import GUARDED, STORE, NodeSpec
from repro.schedule import preprocess

SWEEP = 60  # seeds per validity sweep — keeps the suite fast


class TestGenerate:
    def test_deterministic(self):
        # NaN params defeat plain dict equality; the canonical signature
        # is the determinism contract.
        assert case_signature(generate_case(1234)) == case_signature(
            generate_case(1234)
        )

    def test_distinct_seeds_differ(self):
        signatures = {case_signature(generate_case(s)) for s in range(20)}
        assert len(signatures) > 15

    @pytest.mark.parametrize("seed", range(SWEEP))
    def test_every_seed_builds_and_preprocesses(self, seed):
        case = generate_case(seed)
        model = build_model(case)
        prog = preprocess(model)
        assert prog.outports, "generated case must observe something"
        stimuli = build_stimuli(case)
        assert set(stimuli) == {b.name for b in prog.inports}

    def test_json_roundtrip_rebuilds_same_model(self):
        case = generate_case(77)
        again = CaseSpec.from_dict(json.loads(json.dumps(case.to_dict())))
        assert case_signature(again) == case_signature(case)
        build_model(again)

    def test_registry_breadth(self):
        """A modest sweep must reach a broad slice of the registry,
        including the structural composites."""
        seen = set()
        for seed in range(250):
            for node in generate_case(seed).nodes:
                seen.add(node.block_type)
        assert GUARDED in seen and STORE in seen
        assert len(seen - {GUARDED, STORE, "Inport"}) >= 35, sorted(seen)


class TestOracle:
    def test_python_rungs_agree_on_sweep(self):
        for seed in range(8):
            report = run_case(generate_case(seed), rungs=("sse_ac", "sse_rac"))
            assert report.agreed, report.divergences

    def test_f32_overflow_is_silent(self):
        """Narrowing an out-of-range double to f32 overflows to inf, as
        in C; the generated Python rungs must not warn about it."""
        import warnings

        from repro.fuzz.driver import FuzzConfig, case_seed

        # Case 22 of ``repro fuzz --seed 777000`` (model Fuzz16) narrows
        # an overflowing double in both generated modules.
        config = FuzzConfig()
        case = generate_case(
            case_seed(777000, 22),
            max_actors=config.max_actors,
            steps=config.steps,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_case(case, rungs=("sse_ac", "sse_rac"))
        assert report.agreed, report.divergences
        assert [str(w.message) for w in caught] == []

    @requires_cc
    def test_all_rungs_agree(self):
        report = run_case(generate_case(3), rungs=available_rungs())
        assert report.agreed, report.divergences

    def test_detects_planted_divergence(self, monkeypatch):
        """A rung whose checksums are perturbed must be flagged."""
        import repro.engines.api as api

        real = api.ENGINES["sse_ac"]

        def broken(prog, stimuli, options):
            result = real(prog, stimuli, options)
            result.checksums = {k: v ^ 1 for k, v in result.checksums.items()}
            return result

        monkeypatch.setitem(api.ENGINES, "sse_ac", broken)
        report = run_case(generate_case(5), rungs=("sse_ac",))
        assert not report.agreed
        assert any(d.kind == "checksums" for d in report.divergences)

    def test_engine_crash_is_a_divergence(self, monkeypatch):
        import repro.engines.api as api

        def crashes(prog, stimuli, options):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(api.ENGINES, "sse_rac", crashes)
        report = run_case(generate_case(5), rungs=("sse_rac",))
        assert [d.kind for d in report.divergences] == ["error"]
        assert "kaboom" in report.divergences[0].detail


class TestShrink:
    def test_drop_node_cascades(self):
        case = generate_case(9)
        first_real = next(
            n.name for n in case.nodes if n.block_type != "Inport"
        )
        smaller = drop_node(case, first_real)
        if smaller is not None:
            names = {n.name for n in smaller.nodes}
            for node in smaller.nodes:
                assert all(i in names for i in node.inputs)
            assert set(smaller.stimuli) == {
                n.name for n in smaller.nodes if n.block_type == "Inport"
            }

    def test_seeded_divergence_shrinks_to_minimal(self):
        """The acceptance contract: a divergence seeded on one block type
        shrinks to <= 4 actors (here: to exactly the one guilty node plus
        its feeders)."""
        case = None
        for seed in range(200):
            candidate = generate_case(seed, max_actors=14)
            if (
                any(n.block_type == "Quantizer" for n in candidate.nodes)
                and candidate.n_actors >= 10
            ):
                case = candidate
                break
        assert case is not None, "sweep produced no large Quantizer case"

        def still_fails(spec: CaseSpec) -> bool:
            build_model(spec)  # invalid candidates must raise -> rejected
            return any(n.block_type == "Quantizer" for n in spec.nodes)

        shrunk, stats = shrink_case(case, still_fails)
        assert any(n.block_type == "Quantizer" for n in shrunk.nodes)
        assert shrunk.n_actors <= 4, (
            f"{stats.summary()}: {[n.block_type for n in shrunk.nodes]}"
        )
        assert shrunk.steps == 1
        assert stats.reductions > 0
        build_model(shrunk)  # the minimal reproducer is still valid

    def test_shrink_simplifies_stimuli(self):
        case = generate_case(11)
        assert case.stimuli

        def still_fails(spec: CaseSpec) -> bool:
            build_model(spec)
            return True  # everything "fails": maximal shrink

        shrunk, _stats = shrink_case(case, still_fails)
        for spec in shrunk.stimuli.values():
            assert spec["kind"] == "constant"

    def test_shrink_respects_attempt_budget(self):
        case = generate_case(13)
        calls = []

        def still_fails(spec: CaseSpec) -> bool:
            calls.append(1)
            return True

        shrink_case(case, still_fails, max_attempts=5)
        assert len(calls) <= 5

    @requires_cc
    def test_shrink_with_real_oracle_predicate(self, monkeypatch):
        """End to end: break a rung, fuzz until the oracle trips, shrink
        with the oracle itself as the predicate."""
        import repro.engines.api as api

        real = api.ENGINES["sse_ac"]

        def broken(prog, stimuli, options):
            result = real(prog, stimuli, options)
            for k in result.outputs:
                if isinstance(result.outputs[k], float):
                    result.outputs[k] += 1.0
                    result.checksums = {
                        c: v ^ 0xDEAD for c, v in result.checksums.items()
                    }
                    break
            return result

        monkeypatch.setitem(api.ENGINES, "sse_ac", broken)
        case = None
        for seed in range(40):
            candidate = generate_case(seed)
            if not run_case(candidate, rungs=("sse_ac",)).agreed:
                case = candidate
                break
        assert case is not None

        def still_fails(spec: CaseSpec) -> bool:
            return not run_case(spec, rungs=("sse_ac",)).agreed

        shrunk, stats = shrink_case(case, still_fails, max_attempts=120)
        assert not run_case(shrunk, rungs=("sse_ac",)).agreed
        assert shrunk.n_actors <= case.n_actors
        assert stats.attempts <= 120

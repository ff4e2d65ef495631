"""Acceptance gate: one pinned-tolerance criterion per test, printed
pass/fail lines, pinned seeds and trial counts.

Runtime budget: criteria 1 and 2 each within 5 s, the whole suite within
60 s.  Every assertion states the measured number next to its bound so a
failure log is self-explanatory.
"""

import json
import time

import pytest

from oddpu import verify

from conftest import (canonical_form_oracle, degeneracy_rank_oracle, dirac_recovery_oracle,
                      hamilton_closure_oracle)


def _report(name, payload):
    status = "pass" if payload["pass"] else "FAIL"
    detail = {k: v for k, v in payload.items() if k != "pass"}
    print("criterion %-28s %s  %s" % (name, status, detail))


class TestAcceptance:
    def test_criterion_1_identity_suite(self):
        t0 = time.perf_counter()
        out = verify.check_identities(n_max=6, trials=20, seed=42)
        elapsed = time.perf_counter() - t0
        payload = out["identities"]
        _report("1 identities", payload)
        assert payload["worst_residual"] <= 1e-8, payload
        assert elapsed <= 5.0, "identity suite took %.2f s" % elapsed

    def test_criterion_2_hamilton_closure(self):
        t0 = time.perf_counter()
        out = verify.check_hamilton_closure(n_max=4, trials=20, seed=42)
        elapsed = time.perf_counter() - t0
        payload = out["hamilton_closure"]
        _report("2 hamilton_closure", payload)
        assert payload["worst_residual"] <= 1e-9, payload
        assert elapsed <= 5.0, "closure suite took %.2f s" % elapsed

    def test_criterion_3_dirac_recovery(self):
        out = verify.check_dirac_recovery(n_max=5, trials=20, seed=42)
        payload = out["dirac_recovery"]
        _report("3 dirac_recovery", payload)
        assert payload["worst_residual"] <= 1e-9, payload

    def test_criterion_4_canonical_form(self):
        out = verify.check_canonical_form(n_max=4, trials=20, seed=42)
        block = out["canonical_block_form"]
        energy = out["energy_oscillator_sum"]
        _report("4 canonical_block_form", block)
        _report("4 energy_oscillator_sum", energy)
        assert block["worst_residual"] <= 1e-9, block
        assert energy["worst_residual"] <= 1e-10, energy

    def test_criterion_5_conservation(self):
        out = verify.check_conservation(n_max=4, trials=3, seed=42)
        payload = out["conservation"]
        _report("5 conservation", payload)
        assert payload["worst_residual"] <= 1e-9, payload

    def test_criterion_6_degeneracy_rank(self):
        out = verify.check_degeneracy_rank(n_max=4, trials=10, seed=42)
        payload = out["degeneracy_rank"]
        _report("6 degeneracy_rank", payload)
        assert payload["pass"], payload

    def test_criterion_7_uniqueness(self):
        out = verify.check_uniqueness()
        exists = out["uniqueness_structure_exists"]
        fails = out["uniqueness_structure_fails"]
        conserved = out["uniqueness_conserved"]
        _report("7 uniqueness_exists", exists)
        _report("7 uniqueness_fails", fails)
        _report("7 uniqueness_conserved", conserved)
        assert exists["worst_residual"] <= 1e-10, exists
        assert fails["best_residual"] >= 1e-3, fails
        assert conserved["worst_residual"] <= 1e-9, conserved

    def test_criterion_8_deformation(self):
        out = verify.check_deformation(n_max=3, trials=10, seed=42)
        ranknull = out["deformation_rank_null"]
        closed = out["deformation_closed_form_n1"]
        order = out["deformation_rk4_order"]
        _report("8 deformation_rank_null", ranknull)
        _report("8 deformation_closed_form", closed)
        _report("8 deformation_rk4_order", order)
        assert ranknull["pass"], ranknull
        assert closed["worst_residual"] <= 1e-9, closed
        assert min(order["orders"]) >= 3.8, order

    def test_criterion_9_eom_fidelity(self):
        out = verify.check_eom_fidelity(n_max=4, trials=10, seed=42)
        payload = out["eom_fidelity"]
        _report("9 eom_fidelity", payload)
        assert payload["worst_residual"] <= 1e-8, payload

    def test_full_suite_runtime_and_summary(self):
        t0 = time.perf_counter()
        summary = verify.run_all(n_max=6, trials=20, seed=42)
        elapsed = time.perf_counter() - t0
        print("full verify run: %.2f s, pass=%s" % (elapsed, summary["pass"]))
        assert summary["pass"], summary
        assert elapsed <= 60.0, "full suite took %.2f s" % elapsed

    def test_trials_capped_per_check(self):
        # every check caps trials at or below the default 20, so asking for
        # more reruns the default suite: same draws, same residuals
        assert verify.run_all(trials=400)["checks"] == verify.run_all()["checks"]


class TestBatchedChecks:
    """Criteria 2, 3, 4 and 6 as batched passes per n give the JSON of
    their draw-at-a-time bodies (``conftest``'s oracles)."""

    @pytest.mark.parametrize("check, oracle, caps", [
        (verify.check_hamilton_closure, hamilton_closure_oracle, (4, 4)),
        (verify.check_dirac_recovery, dirac_recovery_oracle, (5, 4)),
        (verify.check_canonical_form, canonical_form_oracle, (4, 4)),
        (verify.check_degeneracy_rank, degeneracy_rank_oracle, (4, 3)),
    ], ids=["hamilton_closure", "dirac_recovery", "canonical_form", "degeneracy_rank"])
    def test_equal_to_the_draw_at_a_time_body(self, check, oracle, caps):
        for seed in range(20):
            assert json.dumps(check(*caps, seed)) == json.dumps(oracle(*caps, seed)), seed

    def test_criterion_8_is_its_two_halves(self):
        whole = verify.check_deformation(n_max=2, trials=3, seed=5)
        halves = verify.check_null_spaces(2, 3, 5)
        halves.update(verify.check_rk4_order())
        assert json.dumps(whole) == json.dumps(halves)
        assert list(whole) == ["deformation_rank_null", "deformation_closed_form_n1",
                               "deformation_rk4_order"]

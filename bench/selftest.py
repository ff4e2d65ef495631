#!/usr/bin/env python3
"""Self-test of the output checks: each must reject a perturbed output.

    python3 bench/selftest.py

Runs short ``simulate`` and ``deform`` inputs and ``verify`` at its
defaults through ``oddpu.cli.main``, confirms that ``checks.py`` accepts
the unchanged outputs, then perturbs each output and confirms that the
checks reject it.  Exits 0 when every case behaves, 1 otherwise.
"""

import json
import os
import sys

import numpy as np

import checks
import workloads
from run import OUTDIR, SRC

SIM = {"omegas": [1.0, 2.0], "gamma": [1.5, -0.75, 0.6, 1.25],
       "state": list(np.linspace(-0.5, 0.5, 10)), "t_end": 10.0, "dt": 1.0 / 128}
DEFORM = {"omegas": [1.0], "gamma": [1.0, -1.0],
          "state": [2.0 * v for v in workloads.README_STATE], "t_end": 10.0, "dt": 0.01,
          "potential": workloads.README_POTENTIAL}


def _rows(path):
    with open(path) as fh:
        return fh.read().splitlines()


def _write(path, lines):
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def nudge_state_cell(src, dst):
    """Largest state cell of the middle row, times 1 + 1e-6."""
    lines = _rows(src)
    k = len(lines) // 2
    cells = lines[k].split(",")
    n_state = sum(1 for name in lines[0].split(",") if name[0] in "xd")
    j = 1 + int(np.argmax([abs(float(c)) for c in cells[1:1 + n_state]]))
    cells[j] = repr(float(cells[j]) * (1 + 1e-6))
    lines[k] = ",".join(cells)
    return _write(dst, lines)


def offset_column(src, dst, name, rel=1e-6):
    """Column ``name`` shifted by rel * (1 + its largest magnitude)."""
    lines = _rows(src)
    j = lines[0].split(",").index(name)
    rows = [line.split(",") for line in lines[1:]]
    shift = rel * (1 + max(abs(float(r[j])) for r in rows))
    for r in rows:
        r[j] = repr(float(r[j]) + shift)
    return _write(dst, [lines[0]] + [",".join(r) for r in rows])


def drop_row(src, dst):
    lines = _rows(src)
    del lines[len(lines) // 2]
    return _write(dst, lines)


def fail_verify_check(src, dst, name="conservation"):
    with open(src) as fh:
        summary = json.load(fh)
    summary["checks"][name]["pass"] = False
    with open(dst, "w") as fh:
        json.dump(summary, fh)
    return dst


def main() -> int:
    sys.path.insert(0, SRC)
    from oddpu import cli

    os.makedirs(OUTDIR, exist_ok=True)
    out = lambda name: os.path.join(OUTDIR, "selftest_" + name)   # noqa: E731

    sim_out, dfm_out, ver_out = out("simulate.csv"), out("deform.csv"), out("verify.json")
    half_out = out("deform_half.csv")
    rcs = [cli.main(workloads.simulate_argv(SIM, sim_out)),
           cli.main(workloads.deform_argv(DEFORM, dfm_out)),
           cli.main(workloads.deform_argv(dict(DEFORM, dt=DEFORM["dt"] / 2), half_out)),
           cli.main(["verify", "--out", ver_out])]
    if any(rcs):
        print("FAIL: CLI exit codes %s" % rcs)
        return 1
    sim_ref = checks.simulate_reference(SIM)
    half_drift = checks.energy_drift(checks.read_deform(half_out, DEFORM)[1])
    check_sim = lambda path: checks.check_simulate(path, SIM, sim_ref)    # noqa: E731
    check_dfm = lambda path: checks.check_deform(path, DEFORM, half_drift)  # noqa: E731

    cases = [
        ("simulate unchanged", check_sim, sim_out, False),
        ("simulate state cell nudged 1e-6", check_sim,
         nudge_state_cell(sim_out, out("nudged.csv")), True),
        ("simulate J column offset", check_sim,
         offset_column(sim_out, out("offset_j.csv"), "J_0_1"), True),
        ("simulate row dropped", check_sim, drop_row(sim_out, out("dropped.csv")), True),
        ("deform unchanged", check_dfm, dfm_out, False),
        ("deform row dropped", check_dfm, drop_row(dfm_out, out("deform_dropped.csv")), True),
        ("deform Hcal column offset", check_dfm,
         offset_column(dfm_out, out("deform_offset.csv"), "Hcal"), True),
        ("verify unchanged", checks.check_verify, ver_out, False),
        ("verify check flipped to failing", checks.check_verify,
         fail_verify_check(ver_out, out("verify_failed.json")), True),
    ]
    ok = True
    for label, check, path, should_reject in cases:
        problems = check(path)
        good = bool(problems) == should_reject
        ok &= good
        print("%s: %s -> %s" % ("ok  " if good else "FAIL", label,
                                 "; ".join(problems) if problems else "accepted"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""The four workloads: their inputs, drawn from the seed, and their checks.

A workload is a list of CLI calls that together make one operation.  Every
call writes its output to a file under the run directory.  ``prepare``
computes the references its checks need, once per run and untimed.
Nothing here imports ``oddpu``.
"""

from __future__ import annotations

import json
import os

import numpy as np

import checks

#: The README's quartic potential, gamma and initial state for ``deform``.
README_POTENTIAL = {"degree": 4, "coeffs": [{"i": 4, "j": 0, "value": 0.05}]}
README_STATE = (0.4, 0.2, -0.12, 0.32, 0.08, -0.24)


def _fmt(values) -> list:
    # Positional notation: argparse takes "-1e-05" for an option flag.
    return [np.format_float_positional(float(v), unique=True, trim="-") for v in values]


def simulate_argv(inp: dict, out: str) -> list:
    argv = ["simulate", "--omegas", *_fmt(inp["omegas"])]
    if inp.get("gamma") is not None:
        argv += ["--gamma", *_fmt(inp["gamma"])]
    return argv + ["--state", *_fmt(inp["state"]), "--t-end", *_fmt([inp["t_end"]]),
                   "--dt", *_fmt([inp["dt"]]), "--out", out]


def deform_argv(inp: dict, out: str) -> list:
    return ["deform", "--omegas", *_fmt(inp["omegas"]), "--gamma", *_fmt(inp["gamma"]),
            "--state", *_fmt(inp["state"]), "--t-end", *_fmt([inp["t_end"]]),
            "--dt", *_fmt([inp["dt"]]), "--potential", json.dumps(inp["potential"]),
            "--out", out]


def draw_gamma(rng, n: int) -> list:
    """2n weights with magnitudes in [0.5, 2] and random signs."""
    return list(rng.uniform(0.5, 2.0, 2 * n) * rng.choice([-1.0, 1.0], 2 * n))


def draw_spectrum(rng, n: int) -> list:
    """n frequencies whose squares start in [0.25, 1] and step by [0.3, 1],
    so the residue factors stay O(1) up to n = 8 (w < 3)."""
    w2 = np.cumsum(np.concatenate(([rng.uniform(0.25, 1.0)], rng.uniform(0.3, 1.0, n - 1))))
    return list(np.sqrt(w2))


class Workload:
    """One operation = ``calls``; ``kind`` selects the setup objects."""

    name = ""
    kind = ""

    def __init__(self, seed: int, outdir: str):
        self.rng = np.random.default_rng(seed)
        self.outdir = outdir
        self.inputs = self.draw()
        self.outs = [os.path.join(outdir, "%s_%d.out" % (self.name, j))
                     for j in range(len(self.inputs))]
        self.refs = None

    def draw(self) -> list:
        raise NotImplementedError

    def argv(self, inp: dict, out: str) -> list:
        raise NotImplementedError

    @property
    def calls(self) -> list:
        return [self.argv(inp, out) for inp, out in zip(self.inputs, self.outs)]

    def prepare(self, cli_main):
        """Compute the check references; ``cli_main`` runs untimed reruns."""

    def check(self) -> list:
        raise NotImplementedError


class SimulateLong(Workload):
    name = "simulate_long"
    kind = "simulate"

    def draw(self):
        return [{"omegas": [1.0, 2.0], "gamma": draw_gamma(self.rng, 2),
                 "state": list(self.rng.uniform(-1.0, 1.0, 10)),
                 "t_end": 100.0, "dt": 1.0 / 128}]      # 12801 samples

    def argv(self, inp, out):
        return simulate_argv(inp, out)

    def prepare(self, cli_main):
        self.refs = [checks.simulate_reference(inp) for inp in self.inputs]

    def check(self):
        return [p for inp, out, ref in zip(self.inputs, self.outs, self.refs)
                for p in checks.check_simulate(out, inp, ref)]


class SimulateMany(SimulateLong):
    name = "simulate_many"
    #: 8 rounds of n = 1..8, ten steps each.
    ROUNDS = 8

    def draw(self):
        out = []
        for _ in range(self.ROUNDS):
            for n in range(1, 9):
                out.append({"omegas": draw_spectrum(self.rng, n),
                            "gamma": draw_gamma(self.rng, n),
                            "state": list(self.rng.uniform(-1.0, 1.0, 4 * n + 2)),
                            "t_end": 1.25, "dt": 0.125})
        return out


class DeformRK4(Workload):
    name = "deform_rk4"
    kind = "deform"

    def draw(self):
        # The README input at a seeded amplitude in [1.5, 2.5]: large enough
        # that the dt/2 drift stays far above rounding, small enough that
        # the indefinite energy cannot escape within t_end.
        amp = self.rng.uniform(1.5, 2.5)
        return [{"omegas": [1.0], "gamma": [1.0, -1.0],
                 "state": [amp * v for v in README_STATE],
                 "t_end": 100.0, "dt": 0.01,                # 10000 RK4 steps
                 "potential": README_POTENTIAL}]

    def argv(self, inp, out):
        return deform_argv(inp, out)

    def prepare(self, cli_main):
        """Rerun each input at dt/2 for the convergence-order check."""
        self.half_drifts = []
        for inp in self.inputs:
            half = dict(inp, dt=inp["dt"] / 2)
            out = os.path.join(self.outdir, "%s_half.out" % self.name)
            rc = cli_main(self.argv(half, out))
            problems, data = checks.read_deform(out, half) if rc == 0 else (["rc"], None)
            if problems:
                raise RuntimeError("deform at dt/2 failed: rc %d, %s" % (rc, problems))
            self.half_drifts.append(checks.energy_drift(data))

    def check(self):
        return [p for inp, out, half in zip(self.inputs, self.outs, self.half_drifts)
                for p in checks.check_deform(out, inp, half)]


class VerifySuite(Workload):
    name = "verify_suite"
    kind = "verify"

    def draw(self):
        # verify at its defaults (n_max 6, trials 20, seed 42); the
        # benchmark seed does not enter, by the workload's definition.
        return [{}]

    def argv(self, inp, out):
        return ["verify", "--out", out]

    def check(self):
        return [p for out in self.outs for p in checks.check_verify(out)]


WORKLOADS = {w.name: w for w in (SimulateLong, SimulateMany, DeformRK4, VerifySuite)}

"""Fresh-interpreter probe: set-up time, and peak memory of one operation.

    python3 bench/probe.py SPEC.json setup|operation

SPEC.json holds the workload's kind, its inputs and its CLI calls.  The
clock starts before numpy and ``oddpu.cli`` are imported and stops once
the workload's one-off objects are built through the public functions.
Kernel samples taken during set-up (``kernel.SpeedSampler``) are taken
out of the time; the normalised figure scales the whole set-up time by
the slowdown they saw.  In ``operation`` mode the probe then runs every
call of one operation through ``oddpu.cli.main``.  It prints one JSON
line: {"setup_s", "setup_norm_s", "rcs", "maxrss_kb"}.  ``PYTHONPATH``
must reach ``src``.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

#: Kernel samples during set-up, which lasts about 0.1 s.
SAMPLE_INTERVAL_S = 0.01


def build(kind, inputs):
    """The one-off objects of the workload's first operation."""
    import numpy as np

    from oddpu import (FrequencySpectrum, GammaWeights, ModalSolution, PhaseState,
                       PotentialSpec, alt_structure, deformed_field,
                       invariant_directions, verify)
    from oddpu.canonical import (alt_hamiltonian_observable, energy_observable,
                                 mode_integrals)

    built = []
    if kind == "verify":
        # verify's draw at seed 42, at n = 3: the largest n at which it
        # builds every kind of object (its deformation check stops there)
        rng = np.random.default_rng(42)
        spec = verify.random_spectrum(rng, 3)
        gamma = verify.random_gamma(rng, spec)
        state = PhaseState(rng.uniform(-1.0, 1.0, spec.jet_dim))
        inputs = [{"spec": spec, "gamma": gamma, "state": state}]
    for inp in inputs:
        spec = inp.get("spec") or FrequencySpectrum(tuple(inp["omegas"]))
        gamma = inp.get("gamma")
        if not isinstance(gamma, GammaWeights):
            gamma = GammaWeights.from_flat(gamma)
        state = inp.get("state")
        if not isinstance(state, PhaseState):
            state = PhaseState(np.array(state))
        objs = [spec, gamma, alt_structure(spec, gamma),
                alt_hamiltonian_observable(spec, gamma)]
        if kind in ("simulate", "verify"):
            objs += [energy_observable(spec), mode_integrals(spec),
                     ModalSolution(spec, state)]
        if kind in ("deform", "verify"):
            objs.append(invariant_directions(spec, gamma))
        if kind == "deform":
            objs.append(deformed_field(spec, gamma,
                                       PotentialSpec.from_json_dict(inp["potential"])))
        built.append(objs)
    return built


def setup(spec):
    from oddpu import cli

    build(spec["kind"], spec["inputs"])
    return cli


def main():
    spec_path, mode = sys.argv[1], sys.argv[2]
    with open(spec_path) as fh:
        spec = json.load(fh)
    import kernel                       # imports numpy, as oddpu.cli would

    before = time.perf_counter() - T0
    cli, work, norm = kernel.SpeedSampler(SAMPLE_INTERVAL_S).timed(lambda: setup(spec))
    setup_s = before + work
    rcs = [cli.main(argv) for argv in spec["calls"]] if mode == "operation" else []
    print(json.dumps({"setup_s": setup_s, "setup_norm_s": setup_s * norm / work,
                      "rcs": rcs,
                      "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))


if __name__ == "__main__":
    main()

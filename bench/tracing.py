"""Spans around the public functions of each ``oddpu`` module, from outside.

``Tracer.install`` replaces each traced function in every ``oddpu`` module
namespace that holds it (``cli``, ``dynamics``, ``poisson``, ``canonical``
and ``deformation`` import functions by name) and each traced method on
its class; ``uninstall`` puts the originals back.  A span records its id,
parent id, name, start and end; spans are kept in memory and written out
when the run ends.  Self time is a span's duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import time

#: (module, attribute, span name).  An attribute "Class.method" patches the
#: method on the class.  Span names group into layers by their first part.
TARGETS = (
    ("oddpu.cli", "main", "cli.main"),
    ("oddpu.spectrum", "elementary_sigma", "spectrum.elementary_sigma"),
    ("oddpu.spectrum", "reduced_sigma", "spectrum.reduced_sigma"),
    ("oddpu.spectrum", "rho", "spectrum.rho"),
    ("oddpu.spectrum", "complete_homogeneous", "spectrum.complete_homogeneous"),
    ("oddpu.spectrum", "complete_homog", "spectrum.complete_homog"),
    ("oddpu.spectrum", "verify_identities", "spectrum.verify_identities"),
    ("oddpu.poisson", "dirac_structure", "poisson.structure"),
    ("oddpu.poisson", "alt_structure", "poisson.structure"),
    ("oddpu.poisson", "degeneracy_scalar", "poisson.degeneracy"),
    ("oddpu.poisson", "gamma_is_degenerate", "poisson.degeneracy"),
    ("oddpu.poisson", "QuadraticObservable.value", "poisson.observable_value"),
    ("oddpu.canonical", "oscillator_map", "canonical.builders"),
    ("oddpu.canonical", "canonical_map", "canonical.builders"),
    ("oddpu.canonical", "scaled_canonical_map", "canonical.builders"),
    ("oddpu.canonical", "energy_observable", "canonical.builders"),
    ("oddpu.canonical", "alt_hamiltonian_observable", "canonical.builders"),
    ("oddpu.canonical", "mode_integrals", "canonical.builders"),
    ("oddpu.canonical", "uniqueness_check", "canonical.uniqueness_check"),
    ("oddpu.dynamics", "ModalSolution.__init__", "dynamics.modal_fit"),
    ("oddpu.dynamics", "ModalSolution.eval", "dynamics.modal_eval"),
    ("oddpu.dynamics", "ModalSolution.derivatives", "dynamics.modal_eval"),
    ("oddpu.dynamics", "rk4_step", "dynamics.rk4_step"),
    ("oddpu.dynamics", "PhaseState.__post_init__", "dynamics.phase_state"),
    ("oddpu.dynamics", "trajectory", "dynamics.trajectory"),
    ("oddpu.deformation", "deformation_system", "deformation.null_space"),
    ("oddpu.deformation", "null_space_complete_pivot", "deformation.null_space"),
    ("oddpu.deformation", "invariant_directions", "deformation.null_space"),
    ("oddpu.deformation", "deformed_field", "deformation.builders"),
    ("oddpu.deformation", "deformed_energy", "deformation.builders"),
    ("oddpu.deformation", "PotentialSpec.value", "deformation.potential"),
    ("oddpu.deformation", "PotentialSpec.grad", "deformation.potential"),
) + tuple(("oddpu.verify", check, "verify." + check) for check in (
    "check_identities", "check_hamilton_closure", "check_dirac_recovery",
    "check_canonical_form", "check_conservation", "check_degeneracy_rank",
    "check_uniqueness", "check_deformation", "check_eom_fidelity"))

#: Span of the vector field that ``deformed_field`` returns.
FIELD_SPAN = "deformation.field"


class Tracer:
    def __init__(self):
        self._patches = []
        self.spans = []           # (id, parent, name, start, end)
        self.totals = {}          # name -> [calls, total_s, self_s]
        self.rows = 0             # trajectory rows produced
        self._stack = []          # [id, child_s] of open spans
        self._ids = itertools.count()

    def reset(self):
        """Forget the spans and totals of the previous operation."""
        self.spans.clear()
        self.totals.clear()
        self.rows = 0

    def wrap(self, name, fn, post=None):
        """``fn`` inside a span; ``post`` maps its result after the span."""
        stack = self._stack
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tot = self.totals.setdefault(name, [0, 0.0, 0.0])
                tot[0] += 1
                tot[1] += dur
                tot[2] += dur - frame[1]
                spans.append((frame[0], parent, name, start, end))
            return post(result) if post else result

        return wrapper

    def _count_rows(self, table):
        self.rows += len(table.times)
        return table

    def _wrap_field(self, result):
        field, v1, v2 = result
        return self.wrap(FIELD_SPAN, field), v1, v2

    def _post(self, attr):
        return {"trajectory": self._count_rows,
                "deformed_field": self._wrap_field}.get(attr)

    def install(self):
        """Patch every traced name in every loaded ``oddpu`` module."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "oddpu" or name.startswith("oddpu."))]
        for modname, attr, span in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(sys.modules[modname], cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(span, original))
                continue
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(span, original, self._post(attr))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    def dump(self, path):
        """Write the spans as gzip-compressed CSV: id,parent,name,start,end."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start,end\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write("%d,%d,%s,%.9f,%.9f\n" % (sid, parent, name, start, end))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced operation (names as in BENCHMARK.json)."""
    tot = tracer.totals

    def calls(*names):
        return sum(tot.get(n, [0])[0] for n in names)

    def self_s(*names):
        return sum(tot.get(n, [0, 0.0, 0.0])[2] for n in names)

    def layer_self(prefix):
        return sum(v[2] for n, v in tot.items() if n.startswith(prefix + "."))

    traj_s = tot.get("dynamics.trajectory", [0, 0.0])[1]
    out = {
        "cli.main.calls": calls("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "spectrum.elementary_sigma.calls": calls("spectrum.elementary_sigma"),
        "spectrum.reduced_sigma.calls": calls("spectrum.reduced_sigma"),
        "spectrum.rho.calls": calls("spectrum.rho"),
        "spectrum.complete_homogeneous.calls": calls("spectrum.complete_homogeneous"),
        "spectrum.self_s": layer_self("spectrum"),
        "spectrum.verify_identities.self_s": self_s("spectrum.verify_identities"),
        "poisson.structure.calls": calls("poisson.structure"),
        "poisson.structure.self_s": self_s("poisson.structure"),
        "poisson.observable_value.calls": calls("poisson.observable_value"),
        "poisson.observable_value.self_s": self_s("poisson.observable_value"),
        "poisson.self_s": layer_self("poisson"),
        "canonical.builders.calls": calls("canonical.builders"),
        "canonical.builders.self_s": self_s("canonical.builders"),
        "canonical.uniqueness_check.self_s": self_s("canonical.uniqueness_check"),
        "dynamics.modal_fit.calls": calls("dynamics.modal_fit"),
        "dynamics.modal_fit.self_s": self_s("dynamics.modal_fit"),
        "dynamics.modal_eval.calls": calls("dynamics.modal_eval"),
        "dynamics.modal_eval.self_s": self_s("dynamics.modal_eval"),
        "dynamics.samples_per_s": tracer.rows / traj_s if traj_s > 0 else 0.0,
        "dynamics.rk4_step.calls": calls("dynamics.rk4_step"),
        "dynamics.rk4_step.self_s": self_s("dynamics.rk4_step"),
        "dynamics.phase_state.calls": calls("dynamics.phase_state"),
        "dynamics.trajectory.rows": tracer.rows,
        "dynamics.trajectory.self_s": self_s("dynamics.trajectory"),
        "deformation.null_space.calls": calls("deformation.null_space"),
        "deformation.null_space.self_s": self_s("deformation.null_space"),
        "deformation.field.calls": calls(FIELD_SPAN),
        "deformation.field.self_s": self_s(FIELD_SPAN),
        "deformation.potential.calls": calls("deformation.potential"),
        "deformation.potential.self_s": self_s("deformation.potential"),
    }
    for modname, attr, span in TARGETS:
        if modname == "oddpu.verify":
            out[span + ".total_s"] = tot.get(span, [0, 0.0])[1]
    return out

"""Batch command-line interface: JSON in, JSON/CSV out.

Commands: ``spectrum`` (polynomial tables and identity report),
``structure`` (Poisson matrix as JSON), ``simulate`` (exact trajectory as
CSV; its conserved columns H, Hcal and J_k_i are constants of the modal
fit, computed and formatted once per run and repeated on every row),
``deform`` (RK4 trajectory of a deformed system as CSV), ``verify`` (full
property suite).  Every command takes the same options, before or
after the command name; a list option (``--omegas``, ``--gamma``,
``--state``) placed before the command name is ended by ``--``.

Each option is declared once, in ``OPTIONS``: its flag and the check of
its value in a ``--config`` JSON file, where null counts as absent and
any other key is refused.  Each command is declared once, in
``COMMANDS``; ``verify``'s defaults live in ``verify.run_all``.

Exit codes: 0 pass, 1 verification failure, 2 bad input (an argument
error or a refused config key or value included) or memory exhausted
(one ``error:`` line on stderr), 3 degenerate structure requested where
nondegeneracy is needed, 4 a trajectory turned non-finite: an RK4 state
or slope, checked per step, or a value of a printed table, checked in
one place, ``dynamics.require_finite``: a modal state of ``simulate``,
or a column of ``simulate`` or ``deform``, whose Htot can overflow where
Hcal and U do not (the error line gives t; a ``simulate`` column is a
run constant, reported at the first grid time).
A reader that closes stdout early (``oddpu simulate ... | head -1``)
ends the command with exit 0 and no ``error:`` line; the rest of the
output is dropped.

CSV tables are written in blocks of ``CSV_BLOCK_ROWS`` rows.  Three
commands hand independent work to ``worker.forked``, which runs it in a
second process where this one may use two CPUs and hands back the
results, or raises the exception that stopped them, as this process
would; no option selects this.  It formats the odd blocks of a long
``simulate`` table, while this process formats the even ones; it
integrates a long ``deform`` table's RK4 blocks after the first, while
this process evaluates and formats the block before, and writes the
table once every block is checked; and it runs ``verify``'s criterion 8
(``verify.run_all``).  A worker that dies or exits non-zero is exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import re
import sys

import numpy as np

from . import canonical, deformation, dynamics, poisson, verify, worker
from .dynamics import IntegrationError, PhaseState, require_finite
from .poisson import DegeneracyError, GammaWeights
from .spectrum import P_TABLE_DEGREE, FrequencySpectrum, complete_homog, verify_identities

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_INTEGRATION = 4

#: Rows formatted per write; bounds the text held in memory at once.
CSV_BLOCK_ROWS = 1024
#: Most time-grid rows a ``simulate`` or ``deform`` request may ask for.
MAX_GRID_ROWS = 10 ** 6
#: Negative numbers argparse takes as option values, not flags; its own
#: pattern leaves out exponent notation such as -1e-05 and the non-finite
#: -inf, -infinity and -nan (any case), which then reach their refusals.
NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$",
                             re.IGNORECASE)


def _output(out_path):
    """The file at out_path, or stdout (left open) when no path is given."""
    return open(out_path, "w") if out_path else contextlib.nullcontext(sys.stdout)


def _emit_json(obj, out_path):
    """Write obj as strict JSON.  JSON has no NaN or Infinity, so a
    non-finite value is refused (exit 2) before out_path is opened."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError("a value to print is outside the float64 range") from None
    with _output(out_path) as fh:
        fh.write(text + "\n")


def _csv_block(columns, start, suffix) -> str:
    """CSV text of the ``CSV_BLOCK_ROWS`` rows from ``start``: the rows of
    ``columns`` side by side, each row ended by ``suffix``."""
    block = np.column_stack([col[start:start + CSV_BLOCK_ROWS] for col in columns]).tolist()
    return "".join(",".join(map(repr, row)) + suffix for row in block)


def _write_csv(header, texts, out_path):
    """Write the header line, then each block of text of ``texts``."""
    with _output(out_path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(texts)


def _emit_csv(header, columns, out_path, constants=()):
    """Write float columns side by side as CSV, one block of
    ``CSV_BLOCK_ROWS`` rows at a time, with the run constants
    ``constants`` as its last columns: formatted once and appended to
    every row, the same bytes as columns of repeated values.  Each of
    ``columns`` is a 1-D column or a 2-D stack of them, all of one
    length; only one block of them is stacked at a time.

    Floats are written in shortest round-trip form (``repr``), so the
    output is deterministic.  The odd blocks come through ``worker.forked``
    (module docstring), with the bytes of this process formatting them.
    """
    suffix = "".join("," + repr(float(v)) for v in constants) + "\n"
    starts = range(0, len(columns[0]), CSV_BLOCK_ROWS)
    with worker.forked("CSV formatter", lambda start: _csv_block(columns, start, suffix),
                       starts[1::2]) as odd:
        _write_csv(header, (next(odd) if k % 2 else _csv_block(columns, start, suffix)
                            for k, start in enumerate(starts)), out_path)


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number_array(value) -> bool:
    return isinstance(value, list) and all(map(deformation._is_finite_number, value))


#: Each option: config key -> (flag type, flag nargs, test of its JSON
#: value, what the value must be, help).  The flag is the key with "_" as
#: "-"; a flag's value overrides the config file's.
OPTIONS = {
    "omegas": (float, "+", _is_number_array, "an array of finite numbers", "frequencies"),
    "gamma": (float, "+", _is_number_array, "an array of finite numbers",
              "2n weights: g01 g02 g11 g12 ..."),
    "state": (float, "+", _is_number_array, "an array of finite numbers",
              "initial jet vector (4n+2 entries)"),
    "t_end": (float, None, deformation._is_finite_number, "a finite number",
              "last grid time (simulate, deform)"),
    "dt": (float, None, deformation._is_finite_number, "a finite number",
           "grid spacing (simulate, deform); the RK4 step (deform)"),
    "potential": (json.loads, None, lambda value: isinstance(value, dict), "an object",
                  'JSON: {"degree":d,"coeffs":[{"i":..,"j":..,"value":..}]}'),
    "seed": (int, None, _is_integer, "an integer", "random seed (verify)"),
    "n_max": (int, None, _is_integer, "an integer",
              "largest n checked, capped per check (verify)"),
    "trials": (int, None, _is_integer, "an integer",
               "random draws per n, capped per check (verify)"),
}


def _merged_config(args) -> dict:
    """File config (if any) with flag values layered on top."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(OPTIONS))
        if unknown:
            raise ValueError("unknown config key %s" % ", ".join(map(repr, unknown)))
        for key, (_, _, is_valid, kind, _) in OPTIONS.items():
            if loaded.get(key) is not None and not is_valid(loaded[key]):
                raise ValueError("config value %s must be %s" % (key, kind))
        # null counts as absent
        cfg.update((key, val) for key, val in loaded.items() if val is not None)
    for key in OPTIONS:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _require(cfg, key):
    if key not in cfg:
        raise ValueError("missing required input: %s" % key)
    return cfg[key]


def _spectrum_from(cfg) -> FrequencySpectrum:
    return FrequencySpectrum(tuple(float(w) for w in _require(cfg, "omegas")))


def _gamma_from(cfg, spec) -> GammaWeights:
    g = GammaWeights.from_flat([float(v) for v in _require(cfg, "gamma")])
    if g.n != spec.n:
        raise ValueError("gamma needs %d values for n=%d" % (2 * spec.n, spec.n))
    return g


def _state_from(cfg, spec) -> PhaseState:
    u = np.array([float(v) for v in _require(cfg, "state")])
    if u.size != spec.jet_dim:
        raise ValueError("state needs %d entries for n=%d" % (spec.jet_dim, spec.n))
    return PhaseState(u)


def _grid_from(cfg) -> np.ndarray:
    t_end = float(_require(cfg, "t_end"))
    dt = float(_require(cfg, "dt"))
    if not (np.isfinite(t_end) and np.isfinite(dt)):
        raise ValueError("t_end and dt must be finite")
    if t_end <= 0 or dt <= 0:
        raise ValueError("t_end and dt must be positive")
    with np.errstate(over="ignore"):
        rows = np.floor(np.float64(t_end) / dt + 1e-9) + 1
    if not rows <= MAX_GRID_ROWS:
        raise ValueError("t_end/dt asks for %.10g grid rows; at most %d are allowed"
                         % (rows, MAX_GRID_ROWS))
    return np.arange(int(rows)) * dt


def cmd_spectrum(cfg, out_path) -> int:
    spec = _spectrum_from(cfg)
    n = spec.n
    table = spec.table
    identities = verify_identities(spec)
    payload = {
        "n": n,
        "omegas": list(spec.omegas),
        "sorted_on_input": not spec.was_sorted,
        "sigma": list(table.sigma),
        "sigma_reduced": [[table.reduced[k][m] for k in range(n)] for m in range(n)],
        "rho": list(table.rho),
        "P": {str(k): complete_homog(spec, k) for k in range(-n + 1, P_TABLE_DEGREE + 1)},
        "identities": identities,
    }
    _emit_json(payload, out_path)
    return EXIT_OK if all(r["pass"] for r in identities.values()) else EXIT_FAIL


def cmd_structure(cfg, out_path) -> int:
    spec = _spectrum_from(cfg)
    gamma = _gamma_from(cfg, spec) if "gamma" in cfg else None
    if gamma is None:
        omega, weights = poisson.dirac_structure(spec), poisson.dirac_equivalent_gamma(spec.n)
    else:
        omega, weights = poisson.alt_structure(spec, gamma), gamma
    # the structure loses rank 2, in the z-sector, exactly where s vanishes
    degenerate = poisson.gamma_is_degenerate(spec, weights)
    payload = {
        "n": spec.n,
        "omegas": list(spec.omegas),
        "gamma": None if gamma is None else [list(pair) for pair in gamma.gamma],
        "matrix": omega.tolist(),
        "degeneracy_scalar": poisson.degeneracy_scalar(spec, weights),
        "provenance": "dirac" if gamma is None else "alternative",
        "rank": spec.jet_dim - 2 * degenerate,
        "degenerate": degenerate,
    }
    _emit_json(payload, out_path)
    return EXIT_OK


def _state_header(n) -> list:
    cols = ["t", "x1", "x2"]
    for s in range(1, 2 * n + 1):
        cols += ["d%d_x1" % s, "d%d_x2" % s]
    return cols


def cmd_simulate(cfg, out_path) -> int:
    spec = _spectrum_from(cfg)
    state = _state_from(cfg, spec)
    grid = _grid_from(cfg)
    gamma = _gamma_from(cfg, spec) if "gamma" in cfg else None
    flow = dynamics.ModalSolution(spec, state)
    # a non-finite state is reported before a non-finite conserved column
    states = flow.grid_states(grid)
    names, values = zip(*canonical.conserved_values(flow, gamma))
    _emit_csv(_state_header(spec.n) + list(names), (grid, states), out_path, values)
    return EXIT_OK


def cmd_deform(cfg, out_path) -> int:
    """Block 0 is integrated here, the rest through ``worker.forked``
    (module docstring), so a table of one block forks nothing."""
    spec = _spectrum_from(cfg)
    gamma = _gamma_from(cfg, spec)
    if poisson.gamma_is_degenerate(spec, gamma):
        raise DegeneracyError("deformation needs |s| > 0")
    state = _state_from(cfg, spec)
    grid = _grid_from(cfg)
    potential = None
    if "potential" in cfg:
        potential = deformation.PotentialSpec.from_json_dict(cfg["potential"])
    field, v1, v2 = deformation.deformed_field(spec, gamma, potential)
    energy = deformation.deformed_energy(spec, gamma, potential, v1, v2)
    blocks = dynamics.RK4Flow(field, state).grid_blocks(grid, CSV_BLOCK_ROWS)
    first = next(blocks)
    starts = range(0, grid.size, CSV_BLOCK_ROWS)
    energies, texts = [], []
    with worker.forked("RK4 worker", lambda start: next(blocks), starts[1:]) as rest:
        for start, states in zip(starts, itertools.chain([first], rest)):
            columns = energy(states)
            energies.append(np.column_stack(tuple(columns.values())))
            texts.append(_csv_block((grid[start:], states, energies[-1]), 0, "\n"))
    require_finite(np.concatenate(energies), grid, list(columns))
    _write_csv(_state_header(spec.n) + list(columns), texts, out_path)
    return EXIT_OK


def cmd_verify(cfg, out_path) -> int:
    summary = verify.run_all(**{key: cfg[key] for key in ("n_max", "trials", "seed")
                                if key in cfg})
    _emit_json(summary, out_path)
    return EXIT_OK if summary["pass"] else EXIT_FAIL


#: Command name -> (function, what ``oddpu -h`` lists for it).
COMMANDS = {
    "spectrum": (cmd_spectrum, "symmetric-polynomial tables and identity report (JSON)"),
    "structure": (cmd_structure, "Poisson structure matrix (JSON)"),
    "simulate": (cmd_simulate, "exact trajectory with conserved columns (CSV)"),
    "deform": (cmd_deform, "RK4 trajectory of a deformed system (CSV)"),
    "verify": (cmd_verify, "run the full property suite (JSON summary)"),
}


class _Parser(argparse.ArgumentParser):
    """Reports an argument error as a ValueError, which ``main`` prints as
    one ``error:`` line with exit 2, instead of a usage block and
    SystemExit."""

    def error(self, message):
        raise ValueError(" ".join(message.splitlines()))


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command: a positional command name and the
    options, which every command accepts."""
    parser = _Parser(
        prog="oddpu",
        description="Odd-order Pais-Uhlenbeck oscillator: construct, verify, "
                    "simulate, deform.",
        epilog="commands:\n" + "".join("  %-12s%s\n" % (name, about)
                                        for name, (_, about) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser._negative_number_matcher = NEGATIVE_NUMBER
    parser.add_argument("command", choices=tuple(COMMANDS), metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", help="JSON config file; flags override it")
    for key, (kind, nargs, _, _, about) in OPTIONS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, nargs=nargs,
                            help=about)
    parser.add_argument("--out", help="output path (default stdout)")
    return parser


#: The parser every ``main`` call uses, built once at import: parsing
#: leaves it unchanged, so repeated calls in one process share it.
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        cfg = _merged_config(args)
        return COMMANDS[args.command][0](cfg, args.out)
    except DegeneracyError as exc:
        print("error: degenerate structure: %s" % exc, file=sys.stderr)
        return EXIT_DEGENERATE
    except IntegrationError as exc:
        print("error: integration produced a non-finite value: %s" % exc, file=sys.stderr)
        return EXIT_INTEGRATION
    except BrokenPipeError:
        # The reader closed stdout early (``oddpu simulate ... | head``):
        # not bad input.  Point stdout at devnull so that the interpreter's
        # final flush of the unwritten buffer cannot fail again at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except (ValueError, KeyError, TypeError, OSError, MemoryError) as exc:
        print("error: %s" % (str(exc) or type(exc).__name__), file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())

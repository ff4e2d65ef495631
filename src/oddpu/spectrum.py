"""Frequency-spectrum combinatorics for the odd-order Pais-Uhlenbeck oscillator.

Everything downstream (equations of motion, Poisson structures, canonical
maps) is built from symmetric polynomials in the squared frequencies:

* ``elementary_sigma``  -- coefficients of prod_k (X + w_k^2),
* ``reduced_sigma``     -- the same with one frequency omitted,
* ``rho``               -- residue factors (-1)^k / prod_{m!=k} (w_m^2 - w_k^2),
* ``complete_homog``    -- complete homogeneous symmetric polynomials P_{2k}.

Each ``FrequencySpectrum`` computes these once, on first use, into its
``table`` (a ``SpectrumTable``); the functions above and every builder
read that table.  The table, and the coordinate maps that
:mod:`oddpu.canonical` keeps through ``FrequencySpectrum.memo``, live as
long as the spectrum instance: two equal spectra share nothing.

``identity_reports`` numerically checks the interlocking identities these
quantities satisfy, in array passes over a batch of spectra of one n.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

#: Minimum allowed gap between squared frequencies.  The residue factors
#: rho_k diverge as two frequencies coalesce, so degenerate spectra are
#: rejected at construction.
GAP_FLOOR = 1e-6

#: The table holds P_{2k} for k up to max(n, P_TABLE_DEGREE): the
#: ``spectrum`` report and ``verify_identities`` read P up to it,
#: ``dirac_structure`` up to n.
P_TABLE_DEGREE = 6


def passes_tolerance(residual: float, scale: float) -> bool:
    """Global tolerance policy: |r| <= 1e-12 + 1e-9 * |scale|."""
    return abs(residual) <= 1e-12 + 1e-9 * abs(scale)


@dataclass(frozen=True)
class SpectrumTable:
    """Every symmetric polynomial of one spectrum, as tuples of floats.

    ``sigma[k]`` is ``elementary_sigma(k)`` (k = 0..n), ``reduced[k][m]`` is
    ``reduced_sigma(m, k)`` (one row per omitted w_k^2), ``rho[k]`` is
    ``rho(k)`` and ``P[k]`` is P_{2k} for k = 0..max(n, 6).
    """

    sigma: tuple
    reduced: tuple
    rho: tuple
    P: tuple

    @classmethod
    def build(cls, w2: tuple) -> "SpectrumTable":
        """The table of the squared frequencies w2, in the spectrum's
        ascending order.  Built in Python floats, in a fixed order: sigma
        and each reduced row by ``_elementary_coeffs``, rho as one product
        per mode, P by ``_complete_homogeneous_pass``.  No BLAS call
        enters, so the table has the same bits under every BLAS kernel.
        Each rho's product must be a normal float; it is checked first."""
        n = len(w2)
        prods = [math.prod(v - w2[k] for v in w2[:k] + w2[k + 1:]) for k in range(n)]
        if not all(sys.float_info.min <= abs(p) < math.inf for p in prods):
            raise ValueError("residue products out of the normal float64 range")
        sigma = tuple(_elementary_coeffs(w2)[::-1])
        reduced = tuple(tuple(_elementary_coeffs(w2[:k] + w2[k + 1:])[::-1])
                        for k in range(n))
        rhos = tuple((-1.0) ** k / p for k, p in enumerate(prods))
        P = tuple(_complete_homogeneous_pass(w2, max(n, P_TABLE_DEGREE)))
        return cls(sigma, reduced, rhos, P)

    @cached_property
    def residues(self) -> np.ndarray:
        """The read-only n x n matrix R[k, m] = (-1)^k rho_k reduced[k][m],
        the inverse of V[m, k] = (-w_k^2)^m (``id1_second``): R reads the
        mode weights y_k off the stack sum_k (-w_k^2)^m y_k, m < n.  An R
        past the float64 range is refused with a ValueError, not a warning."""
        with np.errstate(over="ignore"):
            R = ((-1.0) ** np.arange(len(self.rho)) * self.rho)[:, None] * self.reduced
        if not np.isfinite(R).all():
            raise ValueError("spectrum residues out of float64 range")
        R.setflags(write=False)
        return R


@dataclass(frozen=True)
class FrequencySpectrum:
    """The n distinct positive frequencies defining the model.

    Frequencies are stored sorted ascending.  Unsorted input is accepted
    and sorted, with ``was_sorted`` flagging that this happened (the sign
    bookkeeping of ``rho`` depends on the ordering convention).

    Every w_k^2 must be a normal float64, and the largest power the
    builders form, w^max(2n+10, 4n-2), must not overflow:
    ``verify_identities`` forms w^(2n+10), the moment sums of
    ``poisson.alt_structure`` w^(4n-2) and the modal basis w^(2n+1).
    Other spectra are refused with a ValueError.
    """

    omegas: tuple

    def __post_init__(self):
        om = tuple(float(w) for w in self.omegas)
        if not om:
            raise ValueError("spectrum needs at least one frequency")
        if any(not np.isfinite(w) or w <= 0.0 for w in om):
            raise ValueError("all frequencies must be finite and strictly positive")
        srt = tuple(sorted(om))
        object.__setattr__(self, "was_sorted", srt != om)
        object.__setattr__(self, "omegas", srt)
        w2 = self.omega_sq
        power = max(2 * self.n + 10, 4 * self.n - 2)
        try:
            srt[-1] ** power    # a Python float power raises OverflowError, never gives inf
            in_range = min(w2) >= sys.float_info.min
        except OverflowError:
            in_range = False
        if not in_range:
            raise ValueError("frequencies out of float64 range: every w^2 must be a "
                             "normal float and w^%d must not overflow" % power)
        # w2 is sorted: a pair closer than the floor has a closer neighbouring pair
        for lo, hi in zip(w2, w2[1:]):
            if hi - lo < GAP_FLOOR:
                raise ValueError("squared-frequency gap %.3g below floor %.1g"
                                 % (hi - lo, GAP_FLOOR))

    @property
    def n(self) -> int:
        return len(self.omegas)

    @cached_property
    def omega_sq(self) -> tuple:
        return tuple(w * w for w in self.omegas)

    @property
    def jet_dim(self) -> int:
        """Dimension of the jet phase space: 4n + 2."""
        return 4 * self.n + 2

    @cached_property
    def table(self) -> SpectrumTable:
        """The symmetric polynomials of this spectrum, built on first use."""
        return SpectrumTable.build(self.omega_sq)

    def memo(self, key: str, build):
        """``build()`` on the first request for ``key``, the same object on
        every later one; held by this instance only."""
        store = self.__dict__.setdefault("_memo", {})
        if key not in store:
            store[key] = build()
        return store[key]


def _elementary_coeffs(w2) -> list:
    """Coefficients of prod (X + v) over v in w2, highest degree first, as
    Python floats.  One factor at a time, by c_i <- c_i + v c_{i-1} from the
    top degree down: a fixed order of IEEE operations, with no BLAS call,
    that gives the bits of chaining ``np.convolve(c, [1, v])``."""
    c = [1.0] + [0.0] * len(w2)
    for j, v in enumerate(w2, 1):
        for i in range(j, 0, -1):
            c[i] += v * c[i - 1]
    return c


def elementary_sigma(spec: FrequencySpectrum, k: int) -> float:
    """Elementary symmetric polynomial of degree n-k in the squared
    frequencies (the coefficient of the (2k+1)-th derivative in the
    equation of motion).  sigma_n = 1, sigma_0 = prod w_k^2."""
    if not 0 <= k <= spec.n:
        raise ValueError("k=%d out of range 0..%d" % (k, spec.n))
    return spec.table.sigma[k]


def reduced_sigma(spec: FrequencySpectrum, m: int, k: int) -> float:
    """Elementary symmetric polynomial of degree n-m-1 in the squared
    frequencies with w_k^2 omitted.  reduced_sigma(n-1, k) = 1."""
    n = spec.n
    if not 0 <= m <= n - 1:
        raise ValueError("m=%d out of range 0..%d" % (m, n - 1))
    if not 0 <= k <= n - 1:
        raise ValueError("k=%d out of range 0..%d" % (k, n - 1))
    return spec.table.reduced[k][m]


def rho(spec: FrequencySpectrum, k: int) -> float:
    """Residue factor (-1)^k / prod_{m != k} (w_m^2 - w_k^2).

    For n = 1 the empty product gives exactly 1 (the convention used by
    the single-mode deformation formulas).  Strictly positive for a
    sorted spectrum.
    """
    n = spec.n
    if not 0 <= k <= n - 1:
        raise ValueError("k=%d out of range 0..%d" % (k, n - 1))
    return spec.table.rho[k]


def _complete_homogeneous_pass(values, k: int) -> list:
    """[h_0, ..., h_k] over ``values`` (k >= 0; Python floats, or arrays of
    one shape, one value set per entry), by the one-variable-at-a-time
    recursion h_d(..., v) = h_d(...) + v * h_{d-1}(..., v).  Each h_d is the
    same whatever k the pass runs to."""
    h = [1.0] + [0.0] * k
    for v in values:
        for d in range(1, k + 1):
            h[d] += v * h[d - 1]
    return h


def complete_homogeneous(values, k: int) -> float:
    """Complete homogeneous symmetric polynomial of degree k over ``values``.

    Zero for k < 0, one for k = 0.  Computed by the stable recursion of
    ``_complete_homogeneous_pass``; the multi-index enumeration stays in
    the tests as the oracle.
    """
    if k < 0:
        return 0.0
    return _complete_homogeneous_pass([float(v) for v in values], k)[k]


def complete_homog(spec: FrequencySpectrum, k: int) -> float:
    """P_{2k}(w_0^2, ..., w_{n-1}^2); zero for k < 0.  Read from the
    table up to degree max(n, 6), computed past it."""
    P = spec.table.P
    return P[k] if 0 <= k < len(P) else complete_homogeneous(spec.omega_sq, k)


def _max_first(first, *rest):
    """Python's ``max(first, *rest)`` elementwise: the first entry unless a
    later one is strictly greater, so a NaN wins only where it comes first."""
    return np.where(np.isnan(first), first, reduce(np.fmax, rest, first))


def _sum_check(terms, rhs):
    """(sum - rhs, max of |terms| and then |rhs|) over the last axis, summed left to right."""
    size = np.abs(terms)
    return (np.add.accumulate(terms, axis=-1)[..., -1] - rhs,
            _max_first(size[..., 0], np.fmax.reduce(size, axis=-1), np.abs(rhs)))


def _worst(checks, axis, locate) -> list:
    """One identity's entry per spectrum, from (residual, scale) pairs
    stacked on ``axis`` into (batch, check) in check order: the largest
    |residual| / max(|scale|, 1e-300) (the first of equal ones; a NaN only
    as the first), ``locate`` of its index, and its ``passes_tolerance``."""
    residual, scale = (np.stack(part, axis).reshape(len(part[0]), -1) for part in zip(*checks))
    rel = np.abs(residual) / _max_first(np.abs(scale), 1e-300)
    ranked = np.where(np.isnan(rel), -1.0, rel)
    ranked[:, 0] = rel[:, 0]
    return [{"max_residual": float(rel[b, i]), "location": list(locate(i)),
             "pass": passes_tolerance(float(residual[b, i]), float(scale[b, i]))}
            for b, i in enumerate(np.argmax(ranked, axis=1).tolist())]


def batch_n(specs) -> int:
    """The n that every spectrum of the batch ``specs`` shares; a ValueError if they differ."""
    if len({spec.n for spec in specs}) != 1:
        raise ValueError("a batch of spectra needs one n")
    return specs[0].n


def identity_reports(specs) -> list:
    """Numerically check the symmetric-polynomial identities of each
    spectrum in ``specs``, a batch that shares one n (a ValueError
    otherwise).  Checked, over all index combinations:

    * ``id1_first``:   sum_k (-1)^k w_p^{2k} reduced_sigma(k, s)
                       = (-1)^s delta_{sp} / rho_s
    * ``id1_second``:  sum_k (-1)^k (-w_k^2)^s reduced_sigma(p, k) rho_k
                       = delta_{sp} (s < n), -sigma_p (s = n)
    * ``id2``:         P_{2k} = (-1)^{n-1} sum_s (-1)^s w_s^{2n+2k-2} rho_s
                       for k = -n+1 .. 6
    * ``power_diff``:  w_a^{2s} - w_b^{2s}
                       = (w_a^2 - w_b^2) P_{2s-2}(w_a^2, w_b^2)
    * ``p_diff``:      P_{2s}(S, w_a^2) - P_{2s}(S, w_b^2)
                       = (w_a^2 - w_b^2) P_{2s-2}(S, w_a^2, w_b^2)

    Residuals are relative to the largest term magnitude in each sum.
    Returns one {identity: {"max_residual", "location", "pass"}} per
    spectrum; failures are reported, never raised.  Each identity is one
    array pass over the batch with the IEEE operations of checking one
    index combination at a time, in order: Python ``**`` powers, products
    in operand order, sums left to right, Python ``max``'s rules for
    scales and the worst check.  No BLAS call enters, each s of
    ``id1_first`` and ``id1_second`` forms one (batch, n, n) array, and
    each s of ``power_diff`` one (batch, n(n-1)) array.
    """
    n, B, w2 = batch_n(specs), len(specs), np.array([spec.omega_sq for spec in specs])
    rho, sigma, red, P = (np.array([getattr(spec.table, f) for spec in specs])
                          for f in ("rho", "sigma", "reduced", "P"))
    # W[:, p, j] = w_p^(2j) for j <= n + 5, V[:, k, s] = (-w_k^2)^s for s <= n
    W = np.array([[[x ** (2 * j) for j in range(n + 6)] for x in spec.omegas] for spec in specs])
    V = np.array([[[(-x) ** s for s in range(n + 1)] for x in spec.omega_sq] for spec in specs])
    sgn, eye = (-1.0) ** np.arange(n), np.eye(n)
    report = {}
    with np.errstate(over="ignore", invalid="ignore"):
        signed = sgn * W[:, :, :n]
        report["id1_first"] = _worst(
            [_sum_check(signed * red[:, s, None, :],
                        np.where(eye[s] == 1.0, (-1.0) ** s / rho[:, s, None], 0.0))
             for s in range(n)], 1, lambda i: divmod(i, n))
        signed, redT = sgn[:, None] * V, red.transpose(0, 2, 1)
        report["id1_second"] = _worst(
            [_sum_check(signed[:, None, :, s] * redT * rho[:, None, :],
                        -sigma[:, :n] if s == n else eye[s])
             for s in range(n + 1)], 1, lambda i: divmod(i, n))
        report["id2"] = _worst(
            [_sum_check((-1.0) ** (n - 1) * sgn * W.transpose(0, 2, 1) * rho[:, None, :],
                        np.concatenate([np.zeros((B, n - 1)), P[:, :P_TABLE_DEGREE + 1]], 1))],
            1, lambda i: (i - n + 1,))
        # one P pass per pair serves every s, each s one (batch, pairs)
        # array; n = 1 samples fixed second arguments
        if n > 1:
            a, b = np.nonzero(eye == 0.0)
            x, y = w2[:, a], w2[:, b]
            powers = lambda s: (W[:, a, s], W[:, b, s])
            locate = lambda i: (int(a[i // 6]), int(b[i // 6]), i % 6 + 1)
        else:
            x, y = np.repeat(w2, 2, axis=1), np.broadcast_to([0.25, 2.0], (B, 2))
            powers = lambda s: (np.array([[spec.omega_sq[0] ** s] * 2 for spec in specs]),
                                np.array([v ** s for v in (0.25, 2.0)]))
            locate = lambda i: ((0.25, 2.0)[i // 6], i % 6 + 1)
        h, diff = _complete_homogeneous_pass([x, y], 5), x - y

        def power_diff(s):
            px, py = powers(s)
            lhs, rhs = px - py, diff * h[s - 1]
            sizes = (px, py) if n > 1 else (lhs,)
            return lhs - rhs, _max_first(*map(abs, sizes + (rhs,)), 1.0)

        report["power_diff"] = _worst([power_diff(s) for s in range(1, 7)], 2, locate)
        # over sampled argument subsets, padded so n = 1 still exercises it;
        # each pair (a, b) of the pool adds its first two other entries
        pool = np.concatenate([w2, np.broadcast_to([0.3, 1.7], (B, 2))], axis=1)
        a, b = np.triu_indices(n + 2, 1)
        kept = (np.arange(4) != a[:, None]) & (np.arange(4) != b[:, None])
        rest = [pool[:, r] for r in np.argsort(~kept, axis=1, kind="stable")[:, :min(n, 2)].T]
        ha, hb = (np.stack(_complete_homogeneous_pass(rest + [pool[:, c]], 4)[1:], -1)
                  for c in (a, b))
        hab = _complete_homogeneous_pass(rest + [pool[:, a], pool[:, b]], 3)
        rhs = (pool[:, a] - pool[:, b])[..., None] * np.stack(np.broadcast_arrays(*hab), -1)
        report["p_diff"] = _worst([(ha - hb - rhs, _max_first(abs(ha), abs(hb), abs(rhs), 1.0))],
                                  1, lambda i: (int(a[i // 4]), int(b[i // 4]), i % 4 + 1))
    return [dict(zip(report, rows)) for rows in zip(*report.values())]


def verify_identities(spec: FrequencySpectrum) -> dict:
    """``identity_reports`` over a batch of one spectrum: the report ``spectrum`` prints."""
    return identity_reports([spec])[0]

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

``verify_identities`` numerically checks the interlocking identities these
quantities satisfy and reports worst-case residuals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

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
        n = len(w2)
        sigma = tuple(_elementary_coeffs(w2)[::-1].tolist())
        reduced, rhos = [], []
        for k in range(n):
            rest = w2[:k] + w2[k + 1:]          # every w^2 except w_k^2
            reduced.append(tuple(_elementary_coeffs(rest)[::-1].tolist()))
            rhos.append((-1.0) ** k / math.prod(v - w2[k] for v in rest))
        P = tuple(_complete_homogeneous_pass(w2, max(n, P_TABLE_DEGREE)))
        return cls(sigma, tuple(reduced), tuple(rhos), P)


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
    was_sorted: bool = field(default=False, compare=False)

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


def _elementary_coeffs(w2) -> np.ndarray:
    """Coefficients of prod (X + v) over v in w2, highest degree first."""
    c = np.array([1.0])
    for v in w2:
        c = np.convolve(c, [1.0, v])
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
    """[h_0, ..., h_k] over ``values`` (k >= 0), by the one-variable-at-a-
    time recursion h_d(..., v) = h_d(...) + v * h_{d-1}(..., v).  Each h_d
    is the same whatever k the pass runs to."""
    h = [1.0] + [0.0] * k
    for v in values:
        v = float(v)
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
    return _complete_homogeneous_pass(values, k)[k]


def complete_homog(spec: FrequencySpectrum, k: int) -> float:
    """P_{2k}(w_0^2, ..., w_{n-1}^2); zero for k < 0.  Read from the
    table up to degree max(n, 6), computed past it."""
    P = spec.table.P
    return P[k] if 0 <= k < len(P) else complete_homogeneous(spec.omega_sq, k)


def _worst(checks) -> dict:
    """The report entry of one identity from its (residual, scale, location)
    checks: the largest relative residual |residual| / |scale| (the first
    of equal ones), where it occurred, and whether that check passes
    ``passes_tolerance``."""
    worst = None
    for residual, scale, location in checks:
        rel = abs(residual) / max(abs(scale), 1e-300)
        if worst is None or rel > worst[0]:
            worst = (rel, residual, scale, location)
    rel, residual, scale, location = worst
    return {"max_residual": rel, "location": list(location),
            "pass": passes_tolerance(residual, scale)}


def verify_identities(spec: FrequencySpectrum) -> dict:
    """Numerically check the symmetric-polynomial identities.

    Checked, over all index combinations:

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
    Returns {identity: {"max_residual", "location", "pass"}}, the report
    the ``spectrum`` command prints.  Failures are reported, never raised.
    """
    n = spec.n
    w = spec.omegas
    table = spec.table
    w2 = spec.omega_sq
    rhos = table.rho
    red = table.reduced

    def id1_first():
        for s in range(n):
            for p in range(n):
                terms = [(-1.0) ** k * w[p] ** (2 * k) * red[s][k] for k in range(n)]
                rhs = (-1.0) ** s / rhos[s] if s == p else 0.0
                yield sum(terms) - rhs, max([abs(t) for t in terms] + [abs(rhs)]), (s, p)

    def id1_second():
        for s in range(n + 1):
            for p in range(n):
                terms = [(-1.0) ** k * (-w2[k]) ** s * red[k][p] * rhos[k]
                         for k in range(n)]
                if s == n:
                    rhs = -table.sigma[p]
                else:
                    rhs = 1.0 if s == p else 0.0
                yield sum(terms) - rhs, max([abs(t) for t in terms] + [abs(rhs)]), (s, p)

    def id2():
        for k in range(-n + 1, P_TABLE_DEGREE + 1):
            terms = [(-1.0) ** (n - 1) * (-1.0) ** s * w[s] ** (2 * n + 2 * k - 2) * rhos[s]
                     for s in range(n)]
            rhs = complete_homog(spec, k)
            yield sum(terms) - rhs, max([abs(t) for t in terms] + [abs(rhs)]), (k,)

    def power_diff():
        # one P pass per pair serves every s
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                h = _complete_homogeneous_pass([w2[a], w2[b]], 5)
                for s in range(1, 7):
                    lhs = w[a] ** (2 * s) - w[b] ** (2 * s)
                    rhs = (w2[a] - w2[b]) * h[s - 1]
                    scale = max(abs(w[a] ** (2 * s)), abs(w[b] ** (2 * s)), abs(rhs), 1.0)
                    yield lhs - rhs, scale, (a, b, s)
        if n == 1:  # check against sampled fixed second arguments
            for v in (0.25, 2.0):
                h = _complete_homogeneous_pass([w2[0], v], 5)
                for s in range(1, 7):
                    lhs = w2[0] ** s - v ** s
                    rhs = (w2[0] - v) * h[s - 1]
                    yield lhs - rhs, max(abs(lhs), abs(rhs), 1.0), (v, s)

    def p_diff():
        # over sampled argument subsets, padded so n = 1 still exercises it
        pool = list(w2) + [0.3, 1.7]
        for a in range(len(pool)):
            for b in range(a + 1, len(pool)):
                rest = [pool[j] for j in range(len(pool)) if j not in (a, b)][:2]
                ha = _complete_homogeneous_pass(rest + [pool[a]], 4)
                hb = _complete_homogeneous_pass(rest + [pool[b]], 4)
                hab = _complete_homogeneous_pass(rest + [pool[a], pool[b]], 3)
                for s in range(1, 5):
                    lhs = ha[s] - hb[s]
                    rhs = (pool[a] - pool[b]) * hab[s - 1]
                    yield lhs - rhs, max(abs(ha[s]), abs(hb[s]), abs(rhs), 1.0), (a, b, s)

    return {check.__name__: _worst(check())
            for check in (id1_first, id1_second, id2, power_diff, p_diff)}

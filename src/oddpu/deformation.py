"""Admissible nonlinear deformations of the odd-order oscillator.

A potential U may be added to the gamma-weighted Hamiltonian without
breaking the lower jet-chain equations iff its gradient is annihilated by
the lower 4n rows of the alternative structure.  Those rows are the
constraint system (``deformation_system``), a linear homogeneous system
on the 4n+2 gradient components whose null space is two-dimensional;
potentials are polynomials in the two resulting invariant scalars
w_a = v_a . u.

``invariant_directions`` writes the null space in closed form, in the
residues rho_k reduced_sigma of the spectrum table: the alternative
structure is a direct sum of 2n one-dimensional oscillators.  It holds at
every n and for degenerate weights too, in one stated basis: w_1 is the
invariant whose position part is x_1, w_2 its rotation, whose position
part is x_2.  It also returns the force coefficient b, Omega_alt v1 = b
times the last unit vector.  ``deformation_system`` and
``null_space_complete_pivot`` remain as the oracle ``verify`` checks the
closed form against.

``deformed_field`` is written in companion form: its lower 4n rows copy
the jet, du_{(s,i)}/dt = u_{(s+1,i)} exactly, and only the top two rows
carry the companion equation plus the force b (-g2, g1).
``deformed_energy`` is the one source of deform's Hcal, U and Htot columns.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .canonical import _oscillator_weights, _scaled_down, oscillator_sums
from .dynamics import J2, companion_matrix
from .poisson import GammaWeights, _require_sizes_match, alt_structure
from .spectrum import FrequencySpectrum

MAX_POTENTIAL_DEGREE = 8


def null_space_complete_pivot(C: np.ndarray):
    """Rank and orthonormal null-space basis by Gauss-Jordan elimination
    with complete pivoting; pivot threshold 1e-10 * ||C||_inf.

    Returns (rank, basis) with basis of shape (n - rank, n).  The
    threshold misjudges the rank of an ill-conditioned matrix (the
    deformation system at n >= 5), so the runtime uses
    ``invariant_directions``; this solver remains the oracle that
    ``verify`` checks it against at small n.
    """
    A = np.array(C, dtype=float)
    m, n = A.shape
    tol = 1e-10 * max(np.linalg.norm(A, np.inf), 1.0)
    perm = list(range(n))
    r = 0
    while r < min(m, n):
        sub = np.abs(A[r:, r:])
        i, j = np.unravel_index(np.argmax(sub), sub.shape)
        if sub[i, j] <= tol:
            break
        i, j = i + r, j + r
        A[[r, i]] = A[[i, r]]
        A[:, [r, j]] = A[:, [j, r]]
        perm[r], perm[j] = perm[j], perm[r]
        for k in range(m):
            if k != r and A[k, r] != 0.0:
                A[k] -= A[k, r] / A[r, r] * A[r]
        r += 1
    basis = []
    for free in range(r, n):
        x = np.zeros(n)
        x[perm[free]] = 1.0
        for lead in range(r):
            x[perm[lead]] = -A[lead, free] / A[lead, lead]
        basis.append(x)
    if basis:
        q, _ = np.linalg.qr(np.array(basis).T)
        basis = q.T
    else:
        basis = np.empty((0, n))
    return r, basis


def deformation_system(spec: FrequencySpectrum, g: GammaWeights) -> np.ndarray:
    """The constraint matrix C (4n x (4n+2)) acting on grad U in jet order:
    the lower 4n rows of the alternative structure, the rows of
    x_i^{(s)} for s < 2n."""
    return alt_structure(spec, g)[:4 * spec.n]


def invariant_directions(spec: FrequencySpectrum, g: GammaWeights):
    """(v1, v2, b): unit basis of the constraint null space and the force
    coefficient b, in closed form.

    Potentials built over w_a = v_a . u leave the lower jet-chain
    equations intact.  In oscillator coordinates the alternative
    structure is a direct sum of 2n one-dimensional oscillators, so the
    null space is written in the residues R of the spectrum table
    (``SpectrumTable.residues``).  With

      t   = sum_m rho_m alpha_m^- reduced_sigma(0, m)   (= s sigma_0),
      c_k = (-1)^{k+1} t,
      A_k = (gamma_{k,2} / 2 - gamma_{k,1} / 2) c_k,
      B_k = (gamma_{k,1} / 2 + gamma_{k,2} / 2) c_k,

    the vector N_1 with x_1 = 1, x_1^{(2j+2)} = sum_k R[k, j] (1 - A_k) / w_k^2,
    x_2^{(2j+1)} = sum_k R[k, j] B_k / w_k (j < n) and zeros elsewhere is
    annihilated by the lower 4n rows of Omega_alt, and v1 = N_1 / |N_1|.
    No rank is decided, no system is solved and no tolerance is used; the
    form holds at every n and at degenerate weights (t = 0) too.  t is
    summed over R[:, 0] with no w^2 divided out: the product s sigma_0
    would leave an ulp in 1 - A_k, which 1 / w_k^2 amplifies at small w.
    N_1 is built once: where t != 0 and j + k > 0, with max |gamma / 2^(j+1)|
    and |t / 2^k| in [1/2, 1), at (1, t) / 2^k and gamma / 2^j, a power-of-2
    multiple of N_1; elsewhere |t gamma| < 2 and it is built unscaled.  |N_1|
    is taken at N_1's own power of 2 (``_scaled_down``), and an N_1 that is
    itself past the float64 range raises ValueError.

    Basis convention: N_1 is the vector of the null space whose position
    part (jet entries x_1, x_2) is (1, 0).  The system is invariant under
    the rotation x_1^(s) -> x_2^(s), x_2^(s) -> -x_1^(s), so v2, the
    rotation of v1, is the unit vector of the plane with position part
    along x_2, and v1 . v2 = 0.  At gamma = (1, -1) and n = 1, A_0 = 1 and
    B_0 = 0 exactly, so v1 = x_1 and w_a = x_a at every w: the README's
    potential 0.05 w1^4 acts on x_1.

    b = t / |N_1|: Omega_alt v1 is b at x_2^{(2n)} and zero elsewhere, and
    by rotation Omega_alt v2 is -b at x_1^{(2n)}.
    """
    R = spec.table.residues
    sign = (-1.0) ** np.arange(spec.n)
    t = float((sign * g.alpha_minus) @ R[:, 0])
    half = np.array(g.gamma) / 2
    j, k = math.frexp(np.abs(half).max())[1], math.frexp(t)[1]
    if t == 0.0 or j + k <= 0:
        j = k = 0
    one, c, h = math.ldexp(1.0, -j - k), -sign * math.ldexp(t, -k), np.ldexp(half, -j)
    N1 = np.zeros(spec.jet_dim)
    d = N1.reshape(-1, 2)              # d[s, i - 1] = x_i^{(s)}
    with np.errstate(over="ignore", invalid="ignore"):
        d[0, 0] = one
        d[2::2, 0] = ((one - (h[:, 1] - h[:, 0]) * c) / np.array(spec.omega_sq)) @ R
        d[1:-1:2, 1] = ((h[:, 0] + h[:, 1]) * c / np.array(spec.omegas)) @ R
    if not np.isfinite(N1).all():
        raise ValueError("invariant directions out of float64 range")
    N1, m = _scaled_down(N1)
    norm = float(np.linalg.norm(N1))
    v1 = N1 / norm
    v2 = np.empty_like(v1)
    v2[0::2], v2[1::2] = -v1[1::2], v1[0::2]
    return v1, v2, math.ldexp(math.ldexp(t, -k) / norm, -j - int(m[0]))


def closed_form_direction_n1(spec: FrequencySpectrum, g: GammaWeights, i: int) -> np.ndarray:
    """The single-mode invariant combination, written out in jet order:
    ((a^-)^2 - (a^+)^2) x_i + (a^- a^+ / w) eps_{ij} dx_j - (a^+/w)^2 ddx_i."""
    if spec.n != 1:
        raise ValueError("closed form applies to n = 1 only")
    ap, am = float(g.alpha_plus[0]), float(g.alpha_minus[0])
    w = spec.omegas[0]
    v = np.zeros((3, 2))           # (derivative order, component)
    v[0, i - 1] = am * am - ap * ap
    v[1, 2 - i] = J2[i - 1, 2 - i] * am * ap / w
    v[2, i - 1] = -(ap / w) ** 2
    return v.ravel()


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial potential sum_t value * w1^i * w2^j over the invariant
    scalars, total degree 1..8.  Exponents are integers >= 0 and values
    finite numbers; a bool, a string or a fraction is refused, not cast."""

    terms: tuple  # ((i, j, value), ...)

    def __post_init__(self):
        for i, j, v in self.terms:
            if not (_is_exponent(i) and _is_exponent(j) and _is_finite_number(v)):
                raise ValueError("bad potential term (i=%r, j=%r, value=%r): exponents "
                                 "must be integers >= 0 and the value a finite number"
                                 % (i, j, v))
        terms = tuple((int(i), int(j), float(v)) for i, j, v in self.terms)
        if not terms:
            raise ValueError("potential needs at least one term")
        object.__setattr__(self, "terms", terms)
        if self.degree < 1:
            raise ValueError("potential degree must be >= 1")
        if self.degree > MAX_POTENTIAL_DEGREE:
            raise ValueError("potential degree capped at %d" % MAX_POTENTIAL_DEGREE)
        # gradient monomials (power of w1, power of w2, coefficient) in the
        # order of the terms, with the products v * i and v * j taken once
        object.__setattr__(self, "_grad_monomials", (
            tuple((i - 1, j, v * i) for i, j, v in terms if i > 0),
            tuple((i, j - 1, v * j) for i, j, v in terms if j > 0)))

    @property
    def degree(self) -> int:
        return max(i + j for i, j, _ in self.terms)

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PotentialSpec":
        """The potential {"degree": d, "coeffs": [{"i": .., "j": .., "value": ..},
        ...]}, "degree" optional; a missing, unknown or mistyped field is
        refused by name."""
        _check_keys(obj, "bad potential", ("coeffs",), ("degree",))
        if not isinstance(obj["coeffs"], list):
            raise ValueError("bad potential: coeffs must be an array, got %r" % (obj["coeffs"],))
        for t in obj["coeffs"]:
            _check_keys(t, "bad potential term %r" % (t,), ("i", "j", "value"))
        terms = tuple((t["i"], t["j"], t["value"]) for t in obj["coeffs"])
        pot = cls(terms)
        if "degree" in obj:
            if not _is_exponent(obj["degree"]):
                raise ValueError("potential degree must be an integer >= 0, got %r"
                                 % (obj["degree"],))
            if obj["degree"] != pot.degree:
                raise ValueError("declared degree %r does not match terms" % obj["degree"])
        return pot

    # Python's float ** raises OverflowError where float * gives inf; both
    # methods return inf instead, so that a blown-up state reaches the
    # integrator's finiteness check.

    def value(self, w1: float, w2: float) -> float:
        try:
            return float(_sum_monomials(self.terms, w1, w2))
        except OverflowError:
            return np.inf

    def grad(self, w1: float, w2: float):
        d1_terms, d2_terms = self._grad_monomials
        try:
            return (float(_sum_monomials(d1_terms, w1, w2)),
                    float(_sum_monomials(d2_terms, w1, w2)))
        except OverflowError:
            return np.inf, np.inf


def _check_keys(obj, what: str, required, optional=()):
    """Refuse obj, as "<what>: <reason>", unless it is a JSON object with
    every required key and no key outside required and optional."""
    if not isinstance(obj, dict):
        raise ValueError("%s: not an object" % what)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValueError("%s: unknown key %s" % (what, ", ".join(map(repr, unknown))))
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError("%s: missing key %s" % (what, ", ".join(map(repr, missing))))


def _is_finite_number(value) -> bool:
    """A finite real number that is not a bool."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:       # an int past the float range
        return False


def _is_exponent(value) -> bool:
    """A non-negative integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0


def _sum_monomials(monomials, w1, w2):
    """Sum of c * w1 ** a * w2 ** b over the (a, b, c) monomials, added left
    to right from an int 0 as ``sum`` adds, so a -0.0 total reads 0.0.  A
    factor w ** 0 is 1.0 and x * 1.0 == x, so it is skipped."""
    total = 0
    for a, b, c in monomials:
        if a:
            c = c * w1 ** a
        if b:
            c = c * w2 ** b
        total = total + c
    return total


def deformed_field(spec: FrequencySpectrum, g: GammaWeights, potential: PotentialSpec = None):
    """State-derivative function of the deformed flow
    du/dt = Omega_alt (A_H u + grad U(u)), in companion form.

    Omega_alt A_H is the companion matrix M, and grad U = g1 v1 + g2 v2
    lies in the constraint null space, so the lower chain equations
    du_{(s,i)}/dt = u_{(s+1,i)} (s < 2n) hold exactly: the field copies
    u[2:] into its lower 4n rows.  Only the top two rows carry the
    force, a rotation: M[-2:] u + b (-g2, g1), with v1, v2 and b from
    ``invariant_directions``.  One product of the stacked rows
    (v1, v2, M[-2:]) with u gives w1, w2 and M[-2:] u; the force is two
    scalar multiply-adds.

    Returns (field, v1, v2); ``field(u)`` returns a fresh array per call.
    With no potential the field is the linear one, M u, and v1, v2 are
    None: the null space is not needed.
    """
    top = companion_matrix(spec)[-2:]
    dim = spec.jet_dim
    if potential is None:
        top_dot = top.dot

        def field(u):
            du = np.empty(dim)
            du[:-2] = u[2:]
            du[-2:] = top_dot(u)
            return du

        return field, None, None
    v1, v2, b = invariant_directions(spec, g)
    rows_dot, grad = np.vstack((v1, v2, top)).dot, potential.grad

    def field(u):
        w1, w2, m1, m2 = rows_dot(u).tolist()
        g1, g2 = grad(w1, w2)
        du = np.empty(dim)
        du[:-2] = u[2:]
        du[-2] = m1 - b * g2
        du[-1] = m2 + b * g1
        return du

    return field, v1, v2


def deformed_energy(spec: FrequencySpectrum, g: GammaWeights, potential: PotentialSpec,
                    v1: np.ndarray, v2: np.ndarray):
    """The columns of ``deform``: a callable from one state (floats) or a
    (rows, dim) stack (arrays) to {"Hcal", "U", "Htot"}.  Htot = Hcal + U
    is conserved along the deformed flow; U = potential(v1 . u, v2 . u),
    or 0 with no potential, each w_a = v_a . u one row-by-column product,
    which rounds as a single state's dot product does.  Hcal is summed
    once at gamma / 2^e (``_scaled_down``) and scaled back by 2^e: gamma
    w^2 overflows long before Hcal does.  ``cli.cmd_deform`` checks the
    values, with ``dynamics.require_finite``."""
    _require_sizes_match(spec, g)
    gamma, e = _scaled_down(np.ravel(g.gamma))
    D = _oscillator_weights(spec, gamma.reshape(-1, 2))

    def columns(u):
        rows = np.atleast_2d(np.asarray(u, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            hcal = np.ldexp(oscillator_sums(spec, D, rows), e)
            if potential is None:
                U = np.zeros(len(rows))
            else:
                w1 = (rows[:, None, :] @ v1[:, None])[:, 0, 0].tolist()
                w2 = (rows[:, None, :] @ v2[:, None])[:, 0, 0].tolist()
                U = np.array([potential.value(a, b) for a, b in zip(w1, w2)])
            out = {"Hcal": hcal, "U": U, "Htot": hcal + U}
        return out if np.ndim(u) == 2 else {name: float(v[0]) for name, v in out.items()}

    return columns

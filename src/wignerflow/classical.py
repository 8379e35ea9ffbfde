"""Classical Hamiltonian orbits: turning-point quadrature, loop frame.

An orbit of H(x, k) = k^2/2 + u(x) at energy E runs between the turning
points x_l, x_r, the real roots of E - u adjacent to the start.  With
E - u = (x_r - x)(x - x_l) r(x) and x = mid + half sin(theta), one period
is theta in [0, 2 pi) at the smooth, periodic rate dtau/dtheta =
1/sqrt(2 r(x)), which is integrated spectrally and inverted at uniform
sample times, so every sample lies on the level set H = E to rounding.
The samples carry the outward unit normal n = (u'(x), k)/|v| and
line-element weights dl = |v| dtau that the loop fluxes integrate against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import sqrt

import numpy as np

from .errors import RejectionError
from .potentials import PotentialModel

DEFAULT_ORBIT_SAMPLES = 4096
DEFAULT_TAU_LIMIT = 1e3
DEFAULT_X_LIMIT = 1e3

#: Convergence of the orbit quadrature: the largest Fourier coefficient of
#: dtau/dtheta in the upper half of its spectrum, relative to its largest
#: value, and the largest sample-time residual, relative to the period.
QUADRATURE_TOL = 1e-14

#: Node counts tried by the period quadrature, and Newton steps allowed to
#: the sample times, before an orbit is rejected as not converging.
_QUADRATURE_NODES = 2 ** np.arange(6, 17)
_NEWTON_STEPS = 16


@dataclass
class ClassicalOrbit:
    """One period of a closed orbit, resampled uniformly in tau.

    Arrays share the sample axis; velocities are the on-shell values
    (v_x, v_k) = (k, -u'(x)).  The outward normals (nx, nk) and the line
    elements dl = |v| dtau derive from them, once per orbit, and an orbit
    with a degenerate speed is rejected when it is built.  The last sample
    precedes the closure point: tau runs over [0, T - T/n_samples].
    """

    tau: np.ndarray
    x: np.ndarray
    k: np.ndarray
    vx: np.ndarray
    vk: np.ndarray
    period: float
    energy: float
    potential_label: str
    single_well_asymmetric: bool = False
    nx: np.ndarray = field(init=False, repr=False)
    nk: np.ndarray = field(init=False, repr=False)
    dl: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Derive the frame now, so that a degenerate speed rejects the orbit here.
        self.nx, self.nk, self.dl = _normal_frame(self.x, self.k, self.vx, self.vk, self.dtau)

    @property
    def dtau(self) -> float:
        return self.period / self.tau.size

    def reversed(self) -> "ClassicalOrbit":
        """The same curve traversed in the opposite direction."""
        return replace(
            self,
            tau=self.tau.copy(),
            x=self.x[::-1].copy(),
            k=self.k[::-1].copy(),
            vx=-self.vx[::-1].copy(),
            vk=-self.vk[::-1].copy(),
        )


def _normal_frame(x: np.ndarray, k: np.ndarray, vx: np.ndarray, vk: np.ndarray, dtau: float):
    """Outward unit normals (-v_k, v_x)/|v| and line elements |v| dtau; rejects |v| ~ 0."""
    speed = np.hypot(vx, vk)
    if np.min(speed) < 1e-12:
        i = int(np.argmin(speed))
        raise RejectionError(
            f"degenerate sample: |v|={speed[i]:.3e} at (x={x[i]:.6g}, k={k[i]:.6g}), an equilibrium"
        )
    return -vk / speed, vx / speed, speed * dtau


def _turning_points(potential: PotentialModel, x0: float, k0: float, du0: float, energy: float):
    """Turning points x_l < x0 < x_r, the real roots of E - u adjacent to x0, and E - u.

    Either point is None where E - u has no root on that side.  A start with
    k0 = 0 is itself the turning point on the side u'(x0) pushes away from.
    """
    p = np.polynomial.polynomial.polytrim(-np.asarray(potential.coefficients, dtype=float))
    p[0] += energy
    roots = np.polynomial.polynomial.polyroots(p) if p.size > 1 else np.empty(0)
    roots = roots.real[roots.imag == 0.0]
    if k0 == 0.0 and roots.size:
        roots[np.argmin(np.abs(roots - x0))] = x0
    left, right = roots[roots < x0], roots[roots > x0]
    x_l = float(left.max()) if left.size else None
    x_r = float(right.min()) if right.size else None
    if k0 == 0.0:
        x_l, x_r = (x_l, x0) if du0 > 0.0 else (x0, x_r)
    return x_l, x_r, p


def solve_orbit(
    potential: PotentialModel,
    start: tuple[float, float],
    n_samples: int = DEFAULT_ORBIT_SAMPLES,
    tau_limit: float = DEFAULT_TAU_LIMIT,
    x_limit: float = DEFAULT_X_LIMIT,
) -> ClassicalOrbit:
    """One closed orbit of xdot = k, kdot = -u'(x), sampled from the start point.

    g = dtau/dtheta is sampled at n nodes, n doubling until the upper half of
    its spectrum is below QUADRATURE_TOL; tau(theta) is its Fourier integral,
    and Newton steps find each sample time's theta; k = half cos(theta) / g.
    Rejects equilibrium starts, a turning point beyond x_limit or none
    (unbounded motion), and a separatrix (r = 0 at a turning point), an
    unconverged quadrature or a period beyond tau_limit (no period found).
    """
    x0, k0 = float(start[0]), float(start[1])
    du0 = float(potential.derivative(x0, 1))
    if sqrt(k0 * k0 + du0 * du0) <= 1e-12:
        raise RejectionError(f"start ({x0}, {k0}) is an equilibrium point of {potential.label}")
    energy = 0.5 * k0 * k0 + float(potential.u(x0))
    x_l, x_r, p = _turning_points(potential, x0, k0, du0, energy)
    for side, x in (("left", x_l), ("right", x_r)):
        if x is None or abs(x) > x_limit:
            where = "none found" if x is None else f"|x|={abs(x):.3g}"
            raise RejectionError(f"unbounded motion: the {side} turning point ({where}) exceeded {x_limit}")
    no_period = f"no period found within tau_limit={tau_limit} for start ({x0}, {k0})"
    r = np.polynomial.polynomial.polydiv(p, [-x_l * x_r, x_l + x_r, -1.0])[0]
    mid, half = 0.5 * (x_l + x_r), 0.5 * (x_r - x_l)

    def g_of(theta: np.ndarray) -> np.ndarray:
        rx = np.polynomial.polynomial.polyval(mid + half * np.sin(theta), r)
        if not np.min(rx) > 0.0:
            raise RejectionError(f"{no_period}: separatrix, u'(x) = 0 at a turning point")
        return 1.0 / np.sqrt(2.0 * rx)

    for n in _QUADRATURE_NODES:
        g = g_of(2.0 * np.pi / n * np.arange(n))
        c = np.fft.rfft(g) / n
        if np.max(np.abs(c[n // 4 :])) <= QUADRATURE_TOL * np.max(g):
            break
    else:
        # a root of r near [x_l, x_r] is a near-pinch of E - u: a saddle just below E
        roots = np.polynomial.polynomial.polyroots(r)
        gap = np.min(np.abs(roots - np.clip(roots.real, x_l, x_r)), initial=np.inf)
        raise RejectionError(
            f"{no_period}: the period quadrature did not converge; the start lies near a separatrix, "
            f"with r(x)'s nearest complex root {gap:.3g} from [x_l, x_r] = [{x_l:.6g}, {x_r:.6g}]"
        )
    period = 2.0 * np.pi * float(c[0].real)
    if period > tau_limit:
        raise RejectionError(f"{no_period}: period {period:.6g}")

    # tau(theta) - tau(0) = c_0 theta + Re sum_m a_m (e^{i m theta} - 1), with
    # a_m = 2 c_m / (i m) summed by Horner's rule; terms below the rounding of tau are dropped.
    a = -2j * c[1 : n // 2] / np.arange(1, n // 2)
    a = a[: 1 + np.flatnonzero(np.abs(a) > np.finfo(float).eps * c[0].real).max(initial=-1)]

    def tau_of(theta: np.ndarray) -> np.ndarray:
        z, acc = np.exp(1j * theta), np.zeros(np.shape(theta), dtype=complex)
        for a_m in a[::-1]:
            acc = (acc + a_m) * z
        return c[0].real * theta + acc.real - np.sum(a.real)

    # arctan2 of sin(theta0) = (x0 - mid) / half and cos(theta0) = k0 g / half, both times half / g
    theta0 = np.arctan2((x0 - mid) * np.sqrt(2.0 * abs(np.polynomial.polynomial.polyval(x0, r))), k0)
    nodes = 2.0 * np.pi / n * np.arange(n + 1)
    tau = np.arange(n_samples) * (period / n_samples)
    target = np.mod(tau_of(theta0) + tau, period)
    theta = np.interp(target, tau_of(nodes), nodes)
    for _ in range(_NEWTON_STEPS):
        residual = tau_of(theta) - target
        if np.max(np.abs(residual)) <= QUADRATURE_TOL * period:
            break
        theta -= residual / g_of(theta)
    else:
        raise RejectionError(f"{no_period}: the sample times did not converge")

    x_s = mid + half * np.sin(theta)
    k_s = half * np.cos(theta) / g_of(theta)
    x_s[0], k_s[0] = x0, k0
    vk = -np.asarray(potential.derivative(x_s, 1), dtype=float)
    asym = potential.parity_even and (np.min(x_s) > 0.0 or np.max(x_s) < 0.0)
    return ClassicalOrbit(tau, x_s, k_s, k_s.copy(), vk, period, energy, potential.label, asym)


def period_quadrature(potential: PotentialModel, energy: float) -> float:
    """Turning-point quadrature of the period, independent of solve_orbit.

    T = 2 int dx / sqrt(2 (E - u(x))) between the turning points around the
    well minimum; the square-root singularity is removed by the substitution
    x = mid + half * sin(theta).  Only tests call it, so scipy's root finder
    and quadrature are imported here rather than with the module.
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    # Locate a point strictly inside the well: minimize u on a coarse scan.
    scan = np.linspace(-DEFAULT_X_LIMIT ** 0.25, DEFAULT_X_LIMIT ** 0.25, 20001)
    u_scan = np.asarray(potential.u(scan))
    inside = scan[np.argmin(u_scan)]
    if potential.u(inside) >= energy:
        raise RejectionError(f"no classically allowed region at energy {energy}")

    def f(x):
        return float(potential.u(x)) - energy

    lo = inside
    step = 1.0
    while f(lo) < 0:
        lo -= step
        step *= 2.0
        if lo < -DEFAULT_X_LIMIT:
            raise RejectionError("left turning point not found")
    x_left = brentq(f, lo, inside, xtol=1e-14)
    hi = inside
    step = 1.0
    while f(hi) < 0:
        hi += step
        step *= 2.0
        if hi > DEFAULT_X_LIMIT:
            raise RejectionError("right turning point not found")
    x_right = brentq(f, inside, hi, xtol=1e-14)

    mid = 0.5 * (x_left + x_right)
    half = 0.5 * (x_right - x_left)

    def integrand(theta):
        x = mid + half * np.sin(theta)
        denom = 2.0 * (energy - float(potential.u(x)))
        if denom <= 0.0:
            return 0.0
        return half * np.cos(theta) / sqrt(denom)

    value, _ = quad(integrand, -np.pi / 2, np.pi / 2, limit=200)
    return 2.0 * value

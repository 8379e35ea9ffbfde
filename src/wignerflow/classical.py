"""Classical Hamiltonian orbits: integration, period detection, loop frame.

Orbits of H(x, k) = k^2/2 + u(x) are integrated with the velocity-Verlet
scheme and the period is located at the second same-direction crossing of
a Poincare section through the start point, refined by interpolation.
One period is then resampled uniformly in tau by the not-a-knot cubic
spline of the Verlet steps (spline.UniformSpline, on the step lattice),
carrying the outward unit normal n = (u'(x), k)/|v| and line-element
weights dl = |v| dtau that the loop fluxes integrate against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import sqrt

import numpy as np

from .errors import RejectionError
from .potentials import PotentialModel
from .spline import UniformSpline

DEFAULT_ORBIT_DTAU = 1e-4
DEFAULT_ORBIT_SAMPLES = 4096
DEFAULT_TAU_LIMIT = 1e3
DEFAULT_X_LIMIT = 1e3

CLOSURE_TOL = 1e-6


@dataclass
class ClassicalOrbit:
    """One period of a closed orbit, resampled uniformly in tau.

    Arrays share the sample axis; velocities are the on-shell values
    (v_x, v_k) = (k, -u'(x)), normals point outward, and dl = |v| dtau.
    The last sample precedes the closure point: tau runs over
    [0, T - T/n_samples].
    """

    tau: np.ndarray
    x: np.ndarray
    k: np.ndarray
    vx: np.ndarray
    vk: np.ndarray
    nx: np.ndarray
    nk: np.ndarray
    dl: np.ndarray
    period: float
    energy: float
    potential_label: str
    single_well_asymmetric: bool = False

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
            nx=-self.nx[::-1].copy(),
            nk=-self.nk[::-1].copy(),
            dl=self.dl[::-1].copy(),
        )


def _normal_frame(x: np.ndarray, k: np.ndarray, vx: np.ndarray, vk: np.ndarray, dtau: float):
    """Outward unit normals (-v_k, v_x)/|v| and line elements |v| dtau; rejects |v| ~ 0."""
    speed = np.hypot(vx, vk)
    if np.min(speed) < 1e-12:
        i = int(np.argmin(speed))
        raise RejectionError(
            f"degenerate sample: |v|={speed[i]:.3e} at (x={x[i]:.6g}, k={k[i]:.6g}); reduce dtau"
        )
    return -vk / speed, vx / speed, speed * dtau


def orbit_frame(orbit: ClassicalOrbit) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample outward normals (shape (N, 2)) and line elements dl."""
    nx, nk, dl = _normal_frame(orbit.x, orbit.k, orbit.vx, orbit.vk, orbit.dtau)
    return np.stack([nx, nk], axis=1), dl


def solve_orbit(
    potential: PotentialModel,
    start: tuple[float, float],
    dtau: float = DEFAULT_ORBIT_DTAU,
    n_samples: int = DEFAULT_ORBIT_SAMPLES,
    tau_limit: float = DEFAULT_TAU_LIMIT,
    x_limit: float = DEFAULT_X_LIMIT,
) -> ClassicalOrbit:
    """Integrate one closed orbit of xdot = k, kdot = -u'(x) from the start point.

    Velocity-Verlet stepping at fixed dtau; the period is the second
    same-direction crossing of the section through the start (the section
    coordinate is chosen transversal to the initial flow), interpolated
    between steps.  Rejects equilibrium starts, unbounded motion, and
    trajectories that fail to close within tau_limit.
    """
    x0, k0 = float(start[0]), float(start[1])
    du0 = float(potential.derivative(x0, 1))
    if sqrt(k0 * k0 + du0 * du0) <= 1e-12:
        raise RejectionError(f"start ({x0}, {k0}) is an equilibrium point of {potential.label}")
    if dtau <= 0:
        raise RejectionError(f"dtau must be positive, got {dtau}")

    # Section through the start, transversal to the initial flow.  The signed
    # coordinate gs increases through the start crossing, so the period is the
    # next ascending zero of gs (the second same-direction section crossing,
    # counting the start itself).
    use_x_section = abs(k0) >= abs(du0)
    direction = float(np.sign(k0)) if use_x_section else float(np.sign(-du0))

    def gs_of(x: float, k: float) -> float:
        return direction * ((x - x0) if use_x_section else (k - k0))

    max_steps = int(np.ceil(tau_limit / dtau))
    xs = np.empty(max_steps + 1)
    ks = np.empty(max_steps + 1)
    xs[0], ks[0] = x0, k0
    x, k = x0, k0
    period = None
    gs_prev = 0.0
    n_steps = 0
    # The end-of-step force is the next step's first half-kick force.
    force = potential.force(x)
    for i in range(1, max_steps + 1):
        half_k = k + 0.5 * dtau * force
        x = x + dtau * half_k
        force = potential.force(x)
        k = half_k + 0.5 * dtau * force
        xs[i], ks[i] = x, k
        n_steps = i
        if abs(x) > x_limit:
            raise RejectionError(
                f"unbounded motion: |x|={abs(x):.3g} exceeded {x_limit} at tau={i * dtau:.3g}"
            )
        gs = gs_of(x, k)
        if gs_prev < 0.0 <= gs:
            # Linear interpolation of the crossing time inside this step.
            frac = gs_prev / (gs_prev - gs)
            period = (i - 1 + frac) * dtau
            break
        gs_prev = gs
    if period is None:
        raise RejectionError(
            f"no period found within tau_limit={tau_limit} for start ({x0}, {k0})"
        )
    sx = UniformSpline(0.0, dtau, xs[: n_steps + 1])
    sk = UniformSpline(0.0, dtau, ks[: n_steps + 1])
    closure = float(np.hypot(sx(period) - x0, sk(period) - k0))
    if closure >= CLOSURE_TOL:
        raise RejectionError(f"orbit closure {closure:.3e} exceeds {CLOSURE_TOL:.0e}")

    tau = np.arange(n_samples) * (period / n_samples)
    x_s = np.asarray(sx(tau), dtype=float)
    k_s = np.asarray(sk(tau), dtype=float)
    vx = k_s.copy()
    vk = -np.asarray(potential.derivative(x_s, 1), dtype=float)
    nx, nk, dl = _normal_frame(x_s, k_s, vx, vk, period / n_samples)
    energy = 0.5 * k0 * k0 + float(potential.u(x0))
    asym = potential.parity_even and (np.min(x_s) > 0.0 or np.max(x_s) < 0.0)
    return ClassicalOrbit(
        tau, x_s, k_s, vx, vk, nx, nk, dl, period, energy, potential.label, asym
    )


def period_quadrature(potential: PotentialModel, energy: float) -> float:
    """Turning-point quadrature of the period, independent of the integrator.

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

"""Continuity-equation flux quantifiers along classical orbits.

Loop integrals of the quantum current remainder Delta J against the
weights {1, ln W, W, W**(beta-1)} quantify probability, entropy, purity
and Renyi-entropy transport across a classical orbit; all of them vanish
identically when the current is classical.  Signs follow the printed
loop formulas (LOOP_WEIGHTS):

    sigma:  - integral dtau  Delta J_k  dx/dtau
    svn:    + integral dtau  ln|W| Delta J_k  dx/dtau
    purity: - integral dtau  W Delta J_k  dx/dtau
    renyi:  - integral dtau  W**(beta-1) Delta J_k  dx/dtau

Each Wigner snapshot is evaluated once: a Snapshot computes the current,
Delta J_k, div(w), one bicubic spline of W (spline.GridSpline, sampled
on the orbit and on the region's refined lattice) and one of Delta J_k
(fitted on the cells the orbit touches and sampled there) at most once
each, and every loop flux, volume term and region quantity of that
snapshot is read from those samples.  The single-quantity
functions below are thin wrappers that build a Snapshot for one field.

An independent oracle cross-checks each loop value by central finite
differences of the orbit-interior integral of the matching quantity,
with the state advanced by the spectral propagator; propagate_states
reaches every oracle time of a run in one sweep.  The exact balance
relations connecting the two routes carry the volume correction
int W**p div(w) dV over the enclosed region, which volume_term provides.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .currents import DEFAULT_NU_MAX, CurrentField, MaskedField, delta_current, div_w, wigner_current
from .errors import RejectionError
from .classical import ClassicalOrbit
from .grid import CoordinateGrid, PhaseSpaceGrid, integrate_volume
from .observables import ENTROPY_FLOOR, power_field
from .potentials import PotentialModel
from .spline import GridSpline
from .states import CAPTURE_LIMIT, StateSpec, Wavefunction, WignerField, evaluate_state, evolve_wavefunction, wigner_transform

QUANTITIES = ("sigma", "svn", "purity", "renyi")

#: Sign and weight(W, beta) of each loop flux, sign * integral dtau weight Delta J_k dx/dtau.
#: W is the orbit samples (loop form) or one sample (diagonal form); callers
#: apply each quantity's rejection rules first and pass |W| to a fractional power.
LOOP_WEIGHTS = {
    "sigma": (-1.0, lambda w, beta: 1.0),
    "svn": (1.0, lambda w, beta: np.log(np.abs(w))),
    "purity": (-1.0, lambda w, beta: w),
    "renyi": (-1.0, lambda w, beta: w ** (beta - 1.0)),
}


def _volume_weight(values: np.ndarray, weight: str | float) -> np.ndarray:
    """Volume weight of int weight * div(w) dV: "one" W, "w" W^2, beta (beta-1) W**beta."""
    if weight == "one":
        return values
    if weight == "w":
        return values**2
    beta = float(weight)
    return (beta - 1.0) * power_field(values, beta)


def interpolate_on_orbit(grid: PhaseSpaceGrid, values: np.ndarray, orbit: ClassicalOrbit) -> np.ndarray:
    """Bicubic samples of a grid field at the orbit points.

    The orbit must stay at least two cells inside the grid boundary.
    """
    return Snapshot(WignerField(values, grid), orbit).w_on


def _scanline_inside(xs: np.ndarray, ks: np.ndarray, vx: np.ndarray, vk: np.ndarray) -> np.ndarray:
    """Even-odd winding test of a lattice against a closed polygon.

    Returns a boolean array of shape (len(xs), len(ks)); a point is inside
    when an odd number of polygon edges cross the horizontal ray to its
    right.  Row-by-row scanline keeps the cost at O(rows * vertices).
    """
    x1, k1 = vx, vk
    x2, k2 = np.roll(vx, -1), np.roll(vk, -1)
    out = np.zeros((xs.size, ks.size), dtype=bool)
    for j, k in enumerate(ks):
        straddle = (k1 > k) != (k2 > k)
        if not straddle.any():
            continue
        a_x, a_k = x1[straddle], k1[straddle]
        x_cross = a_x + (k - a_k) * (x2[straddle] - a_x) / (k2[straddle] - a_k)
        x_cross.sort()
        to_the_right = x_cross.size - np.searchsorted(x_cross, xs, side="right")
        out[:, j] = (to_the_right % 2).astype(bool)
    return out


def orbit_interior_mask(orbit: ClassicalOrbit, grid: PhaseSpaceGrid) -> np.ndarray:
    """Boolean node mask of the region enclosed by the orbit polygon."""
    mask = np.zeros(grid.shape, dtype=bool)
    ix = np.nonzero((grid.x >= orbit.x.min()) & (grid.x <= orbit.x.max()))[0]
    ik = np.nonzero((grid.k >= orbit.k.min()) & (grid.k <= orbit.k.max()))[0]
    if ix.size == 0 or ik.size == 0:
        return mask
    mask[np.ix_(ix, ik)] = _scanline_inside(grid.x[ix], grid.k[ik], orbit.x, orbit.k)
    return mask


class OrbitRegion:
    """Quadrature helper for integrals over the orbit interior.

    Builds, once per orbit, a refined node-centered lattice over the orbit
    bounding box with fractional cell-coverage weights (subsampled on
    boundary cells), so that finite differences of region integrals are not
    polluted by staircase error.  Also exposes the plain boolean node mask
    used by volume_term.
    """

    def __init__(self, orbit: ClassicalOrbit, grid: PhaseSpaceGrid, refine: int = 4, subsamples: int = 8) -> None:
        self.orbit = orbit
        self.grid = grid
        self.mask = orbit_interior_mask(orbit, grid)

        hx, hk = grid.h_x / refine, grid.h_k / refine
        x_lo, x_hi = orbit.x.min() - grid.h_x, orbit.x.max() + grid.h_x
        k_lo, k_hi = orbit.k.min() - grid.h_k, orbit.k.max() + grid.h_k
        self._fx = np.arange(x_lo, x_hi + hx, hx)
        self._fk = np.arange(k_lo, k_hi + hk, hk)
        #: Corners of the refined lattice, the reach of a spline it samples.
        self.corners = (self._fx[[0, -1]], self._fk[[0, -1]])
        self._cell_area = hx * hk

        # Coverage fraction of each node-centered cell, from an exact winding
        # test on a subsamples x subsamples sub-lattice per cell.
        frac = (np.arange(subsamples) + 0.5) / subsamples - 0.5
        sub_x = (self._fx[:, None] + hx * frac[None, :]).ravel()
        sub_k = (self._fk[:, None] + hk * frac[None, :]).ravel()
        inside = _scanline_inside(sub_x, sub_k, orbit.x, orbit.k)
        inside = inside.reshape(self._fx.size, subsamples, self._fk.size, subsamples)
        self._weights = inside.mean(axis=(1, 3))

    def refine(self, spline: GridSpline) -> np.ndarray:
        """Samples of a fitted grid spline on the refined lattice."""
        return spline.lattice(self._fx, self._fk)

    def fine_integral(self, fine: np.ndarray, func=None) -> float:
        """Integral over the enclosed region of func(fine) for refined-lattice samples."""
        if func is not None:
            fine = func(fine)
        return float(np.sum(fine * self._weights) * self._cell_area)

    def integral(self, values: np.ndarray, func=None) -> float:
        """Integral over the enclosed region of func(W) (default: W itself)."""
        return self.fine_integral(self.refine(GridSpline(self.grid, values, self.corners)), func)

    def quantity(self, w: WignerField, name: str, beta: float | None = None, floor: float = ENTROPY_FLOOR) -> float:
        """Region-restricted sigma / S_vN / purity / Renyi power integral."""
        return Snapshot(w, region=self).quantity(name, beta, floor)


def _loop_sum(weights, delta_jk: np.ndarray, orbit: ClassicalOrbit) -> float:
    return float(np.sum(weights * delta_jk * orbit.vx) * orbit.dtau)


@dataclass
class VolumeTermResult:
    value: float
    masked_in_region: int

    def __float__(self) -> float:
        return self.value


@dataclass(eq=False)
class Snapshot:
    """One Wigner snapshot and its derived fields, each computed at most once.

    Fields are lazy: region quantities need only the region and never build
    the current; loop fluxes need the orbit (checked to lie two cells inside
    the grid) and the potential; volume terms need the potential.  A snapshot
    holds several grid-sized arrays, so keep it no longer than its time node.
    """

    w: WignerField
    orbit: ClassicalOrbit | None = None
    potential: PotentialModel | None = None
    nu_max: int = DEFAULT_NU_MAX
    region: OrbitRegion | None = None
    epsilon_mask: float | None = None

    def __post_init__(self) -> None:
        grid, orbit = self.w.grid, self.orbit
        if orbit is not None and (
            np.min(orbit.x) < grid.x_min + 2 * grid.h_x
            or np.max(orbit.x) > grid.x_max - 2 * grid.h_x
            or np.min(orbit.k) < grid.k_min + 2 * grid.h_k
            or np.max(orbit.k) > grid.k_max - 2 * grid.h_k
        ):
            raise RejectionError("orbit leaves the safe grid interior (two-cell margin)")

    @cached_property
    def current(self) -> CurrentField:
        return wigner_current(self.w, self.potential, self.nu_max)

    @cached_property
    def dj_k(self) -> np.ndarray:
        """Delta J_k on the grid."""
        return delta_current(self.current, self.w, self.potential).jk

    @cached_property
    def div(self) -> MaskedField:
        return div_w(self.current, self.w, self.epsilon_mask)

    @cached_property
    def w_spline(self) -> GridSpline:
        """W's spline, fitted on the cells that the orbit and the region's lattice sample."""
        reach = [(self.orbit.x, self.orbit.k)] if self.orbit is not None else []
        if self.region is not None:
            reach.append(self.region.corners)
        return GridSpline(self.w.grid, self.w.values, tuple(np.concatenate(axis) for axis in zip(*reach)))

    @cached_property
    def w_on(self) -> np.ndarray:
        """W at the orbit samples."""
        return self.w_spline.ev(self.orbit.x, self.orbit.k)

    @cached_property
    def dj_on(self) -> np.ndarray:
        """Delta J_k at the orbit samples, from a spline fitted on the cells they touch."""
        near = (self.orbit.x, self.orbit.k)
        return GridSpline(self.w.grid, self.dj_k, near).ev(*near)

    @cached_property
    def fine_w(self) -> np.ndarray:
        """W on the region's refined lattice."""
        return self.region.refine(self.w_spline)

    def loop(self, name: str, beta: float | None = None, epsilon: float = ENTROPY_FLOOR) -> float:
        """Loop flux of one quantity, with that quantity's rejection rules.

        epsilon is the |W| floor of the ln|W| weight and the sign floor of a
        fractional-power Renyi weight.
        """
        if name == "svn" and epsilon <= 0:
            raise RejectionError(f"epsilon must be positive, got {epsilon}")
        if name == "renyi" and (beta <= 0 or beta == 1.0):
            raise RejectionError(f"beta must be positive and different from 1, got {beta}")
        w_on = None if name == "sigma" else self.w_on
        if name == "svn":
            total = self.w.total()
            if abs(total - 1.0) > CAPTURE_LIMIT:
                warnings.warn(
                    f"svn_flux on an unnormalized field (integral {total:.6g}): "
                    "the ln W weight is scale-sensitive", RuntimeWarning, stacklevel=3,
                )
            small = np.abs(w_on) <= epsilon
            if np.any(small):
                i = int(np.argmax(small))
                raise RejectionError(
                    f"|W|={abs(w_on[i]):.3e} <= epsilon at orbit sample {i} "
                    f"(x={self.orbit.x[i]:.6g}, k={self.orbit.k[i]:.6g})"
                )
        elif name == "renyi" and not float(beta - 1.0).is_integer():
            negative = int(np.count_nonzero((w_on < 0.0) & (np.abs(w_on) > epsilon)))
            if negative:
                raise RejectionError(f"W**(beta-1) undefined for beta={beta}: {negative} negative orbit samples")
            w_on = np.abs(w_on)
        sign, weight = LOOP_WEIGHTS[name]
        return sign * _loop_sum(weight(w_on, beta), self.dj_on, self.orbit)

    def volume(self, weight: str | float, mask: np.ndarray | None = None) -> VolumeTermResult:
        """Volume correction int weight * div(w) dV over a node mask (see volume_term)."""
        dv = self.div
        integrand = _volume_weight(self.w.values, weight) * dv.values
        keep = dv.valid if mask is None else (dv.valid & mask)
        n_region = int(np.count_nonzero(mask)) if mask is not None else self.w.values.size
        masked = n_region - int(np.count_nonzero(keep))
        return VolumeTermResult(integrate_volume(self.w.grid, integrand, mask=keep), masked)

    def quantity(self, name: str, beta: float | None = None, floor: float = ENTROPY_FLOOR) -> float:
        """Region-restricted sigma / S_vN / purity / Renyi power integral."""
        integral = self.region.fine_integral
        if name == "sigma":
            return integral(self.fine_w)
        if name == "svn":
            def neg_w_log(v):
                keep = np.abs(v) > floor
                out = np.zeros_like(v)
                out[keep] = -v[keep] * np.log(np.abs(v[keep]))
                return out
            return integral(self.fine_w, neg_w_log)
        if name == "purity":
            return 2.0 * np.pi * integral(self.fine_w, np.square)
        if name == "renyi":
            if beta is None:
                raise RejectionError("renyi quantity needs beta")
            return integral(self.fine_w, lambda v: power_field(v, beta, floor))
        raise RejectionError(f"unknown quantity {name!r}")

    def block(self, betas, epsilon_entropy: float = ENTROPY_FLOOR) -> dict:
        """All loop fluxes, volume terms and balance forms (see instantaneous_block)."""
        mask = self.region.mask
        block: dict = {"tau": self.w.tau}

        sig = self.loop("sigma")
        block["sigma"] = {"loop": sig, "full": sig}

        for name, weight, volume_sign in (("svn", "one", 1.0), ("purity", "w", -1.0)):
            flux = self.loop(name, epsilon=epsilon_entropy)
            vt = self.volume(weight, mask)
            block[name] = {
                "loop": flux,
                "volume_term": vt.value,
                "masked_nodes": vt.masked_in_region,
                "full": flux + volume_sign * vt.value,
            }

        block["renyi"] = {}
        for beta in betas:
            try:
                flux = self.loop("renyi", beta, epsilon_entropy)
            except RejectionError as exc:
                block["renyi"][f"{beta:g}"] = {"rejected": str(exc)}
                continue
            entry = {"loop": flux}
            # The volume correction and region power integral raise for
            # non-integer beta whenever W dips negative somewhere on the grid or
            # region; the loop value above stays valid, so degrade per piece.
            try:
                vt = self.volume(beta, mask)
                entry.update(volume_term=vt.value, masked_nodes=vt.masked_in_region, full=flux - vt.value)
            except RejectionError as exc:
                entry["volume_term_rejected"] = str(exc)
            try:
                power_integral = self.quantity("renyi", beta, epsilon_entropy)
                entry["region_power_integral"] = power_integral
                if power_integral > 0:
                    entry["rate"] = flux / power_integral
            except RejectionError as exc:
                entry["rate_rejected"] = str(exc)
            block["renyi"][f"{beta:g}"] = entry
        return block


def sigma_flux(w: WignerField, orbit: ClassicalOrbit, potential: PotentialModel, nu_max: int = DEFAULT_NU_MAX) -> float:
    """Probability flux across the orbit: instantaneous rate of the enclosed probability."""
    return Snapshot(w, orbit, potential, nu_max).loop("sigma")


def svn_flux(
    w: WignerField,
    orbit: ClassicalOrbit,
    potential: PotentialModel,
    nu_max: int = DEFAULT_NU_MAX,
    epsilon: float = ENTROPY_FLOOR,
) -> float:
    """ln|W|-weighted loop flux (positive sign as printed).

    Rejects when the orbit touches nodes with |W| <= epsilon; a silently
    floored weight would bias the integral.
    """
    return Snapshot(w, orbit, potential, nu_max).loop("svn", epsilon=epsilon)


def purity_flux(
    w: WignerField, orbit: ClassicalOrbit, potential: PotentialModel, nu_max: int = DEFAULT_NU_MAX
) -> float:
    """W-weighted loop flux, the loop form of the purity rate (no 2 pi factor)."""
    return Snapshot(w, orbit, potential, nu_max).loop("purity")


def renyi_flux(
    w: WignerField,
    orbit: ClassicalOrbit,
    potential: PotentialModel,
    nu_max: int = DEFAULT_NU_MAX,
    beta: float = 2.0,
    floor: float = ENTROPY_FLOOR,
) -> float:
    """W**(beta-1)-weighted loop flux; beta follows the Renyi-entropy rules."""
    return Snapshot(w, orbit, potential, nu_max).loop("renyi", beta, floor)


def volume_term(
    w: WignerField,
    potential: PotentialModel,
    nu_max: int = DEFAULT_NU_MAX,
    epsilon: float | None = None,
    region: np.ndarray | None = None,
    weight: str | float = "one",
) -> VolumeTermResult:
    """Volume correction int weight * W * div(w) dV over a node-mask region.

    weight "one" gives the entropy-balance term int W div(w); weight "w"
    gives the purity term int W^2 div(w); a float beta gives the Renyi term
    (beta - 1) int W**beta div(w).  Nodes where the phase-velocity quotient
    is masked contribute zero and are counted.
    """
    return Snapshot(w, potential=potential, nu_max=nu_max, epsilon_mask=epsilon).volume(weight, region)


def oracle_times(tau: float, dtau_fd: float) -> tuple[float, float]:
    """The two times, tau - dtau_fd and tau + dtau_fd, that the oracle central-differences.

    Every caller that propagates oracle states or looks them up takes the
    times from here, so the keys agree to the last bit.
    """
    return (tau - dtau_fd, tau + dtau_fd)


def propagate_states(
    phi0: Wavefunction, potential: PotentialModel, times, dtau_evolve: float
) -> dict[float, Wavefunction]:
    """The state at each requested time, from one split-step sweep out of phi0 at tau = 0.

    Times >= 0 are reached in ascending order from the running state and
    negative times in descending order from phi0, each leg in
    max(1, round(|leg| / dtau_evolve)) equal steps, so the step count is
    linear in the span of the times.  Each state is tagged with its
    requested time, which is also its key.
    """
    if not dtau_evolve > 0:
        raise RejectionError(f"dtau_evolve must be positive, got {dtau_evolve}")
    times = set(times)
    out = {}
    for leg_times in (sorted(t for t in times if t >= 0), sorted((t for t in times if t < 0), reverse=True)):
        phi, prev = phi0, 0.0
        for t in leg_times:
            if t != prev:
                n_steps = max(1, int(round(abs(t - prev) / dtau_evolve)))
                phi = evolve_wavefunction(phi, potential, (t - prev) / n_steps, n_steps)
                phi.tau = t
            out[t], prev = phi, t
    return out


def _oracle_pair(spec, potential, tau, dtau_fd, pgrid, cgrid, dtau_evolve, region, states) -> list[Snapshot]:
    """Snapshots of the state at the two oracle_times around tau.

    states maps times to propagated states (see propagate_states); None
    propagates the two states by a sweep of their own.
    """
    times = oracle_times(tau, dtau_fd)
    if states is None:
        states = propagate_states(evaluate_state(spec, cgrid, 0.0), potential, times, dtau_evolve)
    missing = [t for t in times if t not in states]
    if missing:
        raise RejectionError(f"no oracle state at tau={missing[0]!r}")
    return [Snapshot(wigner_transform(states[t], pgrid), region=region) for t in times]


def _central_difference(pair: list[Snapshot], name: str, beta, floor: float, dtau_fd: float) -> float:
    q = [snap.quantity(name, beta, floor) for snap in pair]
    return (q[1] - q[0]) / (2.0 * dtau_fd)


def oracle_flux(
    spec: StateSpec,
    potential: PotentialModel,
    orbit: ClassicalOrbit,
    quantity: str,
    dtau_fd: float = 1e-3,
    *,
    tau: float = 0.0,
    beta: float | None = None,
    pgrid: PhaseSpaceGrid,
    cgrid: CoordinateGrid,
    dtau_evolve: float = 2.5e-4,
    region: OrbitRegion | None = None,
    floor: float = ENTROPY_FLOOR,
    states: dict | None = None,
) -> float:
    """Independent instantaneous rate of a region-restricted quantity.

    Takes the states at tau - dtau_fd and tau + dtau_fd from states, a map
    of time to state produced by propagate_states (for example one sweep
    over the oracle times of every output time), or else propagates the two
    from tau = 0 by a sweep of its own with steps of about dtau_evolve.  It
    rebuilds W at both times and central-differences the orbit-interior
    integral of the quantity (sigma, svn, purity as 2 pi int W^2, or the
    Renyi power integral int W**beta).  This route never touches the
    current series or its truncation order; that independence is what lets
    it adjudicate the loop formulas.
    """
    if quantity not in QUANTITIES:
        raise RejectionError(f"unknown quantity {quantity!r}")
    if dtau_fd <= 0:
        raise RejectionError(f"dtau_fd must be positive, got {dtau_fd}")
    if region is None:
        region = OrbitRegion(orbit, pgrid)
    pair = _oracle_pair(spec, potential, tau, dtau_fd, pgrid, cgrid, dtau_evolve, region, states)
    return _central_difference(pair, quantity, beta, floor, dtau_fd)


def oracle_rates(
    spec: StateSpec,
    potential: PotentialModel,
    orbit: ClassicalOrbit,
    betas,
    dtau_fd: float = 1e-3,
    *,
    tau: float = 0.0,
    pgrid: PhaseSpaceGrid,
    cgrid: CoordinateGrid,
    dtau_evolve: float = 2.5e-4,
    region: OrbitRegion | None = None,
    floor: float = ENTROPY_FLOOR,
    states: dict | None = None,
) -> dict:
    """All oracle rates at once from a single pair of evolved fields.

    Same finite-difference route as oracle_flux, with the two states taken
    from states or from one sweep of their own, sharing the two Wigner
    builds and their refined-lattice samples across sigma, svn, purity and
    every requested beta.
    """
    if region is None:
        region = OrbitRegion(orbit, pgrid)
    pair = _oracle_pair(spec, potential, tau, dtau_fd, pgrid, cgrid, dtau_evolve, region, states)

    def diff(name: str, beta: float | None = None):
        try:
            return _central_difference(pair, name, beta, floor, dtau_fd)
        except RejectionError as exc:
            return exc

    out = {name: diff(name) for name in ("sigma", "svn", "purity")}
    out["renyi"] = {f"{b:g}": diff("renyi", b) for b in betas}
    return out


def _rel_dev(value: float, reference: float, floor: float = 1e-12) -> float:
    if abs(value) < floor and abs(reference) < floor:
        return 0.0
    return abs(value - reference) / max(abs(reference), floor)


def instantaneous_block(
    w: WignerField,
    orbit: ClassicalOrbit,
    potential: PotentialModel,
    nu_max: int,
    betas,
    epsilon_entropy: float = ENTROPY_FLOOR,
    epsilon_mask: float | None = None,
    region: OrbitRegion | None = None,
) -> dict:
    """All loop fluxes, volume terms and balance forms at the field's time tag.

    The balance ("full") forms pair each loop value with its volume
    correction so that they should match the oracle rates:
        sigma_full  = sigma_loop
        svn_full    = svn_loop + int W div(w)
        purity_full = purity_loop - int W^2 div(w)      (oracle carries 2 pi)
        renyi_full  = renyi_loop - (beta-1) int W**beta div(w)
    """
    if region is None:
        region = OrbitRegion(orbit, w.grid)
    return Snapshot(w, orbit, potential, nu_max, region, epsilon_mask).block(betas, epsilon_entropy)


def attach_oracles(
    block: dict,
    spec: StateSpec,
    potential: PotentialModel,
    orbit: ClassicalOrbit,
    betas,
    *,
    pgrid: PhaseSpaceGrid,
    cgrid: CoordinateGrid,
    dtau_fd: float = 1e-3,
    dtau_evolve: float = 2.5e-4,
    region: OrbitRegion | None = None,
    floor: float = ENTROPY_FLOOR,
    states: dict | None = None,
) -> dict:
    """Add oracle rates and relative deviations to an instantaneous block.

    states is passed on to oracle_rates (see propagate_states).
    """
    if region is None:
        region = OrbitRegion(orbit, pgrid)
    rates = oracle_rates(
        spec, potential, orbit, betas, dtau_fd,
        tau=block["tau"], pgrid=pgrid, cgrid=cgrid,
        dtau_evolve=dtau_evolve, region=region, floor=floor, states=states,
    )
    for name in ("sigma", "svn"):
        block[name]["oracle"] = rates[name]
        block[name]["rel_dev"] = _rel_dev(block[name]["full"], rates[name])
    o_pur = rates["purity"]
    block["purity"]["oracle"] = o_pur
    block["purity"]["oracle_2pi_adjusted"] = o_pur / (2.0 * np.pi)
    block["purity"]["rel_dev"] = _rel_dev(block["purity"]["full"], o_pur / (2.0 * np.pi))
    block["purity"]["rel_dev_unadjusted"] = _rel_dev(block["purity"]["full"], o_pur)

    for beta in betas:
        entry = block["renyi"][f"{beta:g}"]
        if "rejected" in entry:
            continue
        o_b = rates["renyi"][f"{beta:g}"]
        if isinstance(o_b, RejectionError):
            entry["oracle_rejected"] = str(o_b)
            continue
        entry["oracle"] = o_b
        if "full" in entry:
            entry["rel_dev"] = _rel_dev(entry["full"], o_b)
    return block


def _diagonal_sample(name: str, beta, w_pt: float, dj_pt: float, vx_pt: float, epsilon: float) -> float:
    """Loop integrand of one quantity at one orbit point; NaN where its weight is undefined."""
    if name == "svn" and not abs(w_pt) > epsilon:
        return np.nan
    if name == "renyi" and not (float(beta - 1).is_integer() or w_pt > 0):
        return np.nan
    sign, weight = LOOP_WEIGHTS[name]
    return sign * weight(w_pt, beta) * dj_pt * vx_pt


def _region_quantities(snap: Snapshot, betas, floor: float) -> dict:
    """Region integral of every quantity; None where a Renyi power is undefined."""
    out = {name: snap.quantity(name, floor=floor) for name in ("sigma", "svn", "purity")}
    for b in betas:
        try:
            out[f"renyi_{b:g}"] = snap.quantity("renyi", b, floor)
        except RejectionError:
            out[f"renyi_{b:g}"] = None
    return out


def period_accumulation(
    spec: StateSpec,
    potential: PotentialModel,
    orbit: ClassicalOrbit,
    nu_max: int,
    betas,
    *,
    pgrid: PhaseSpaceGrid,
    cgrid: CoordinateGrid,
    n_nodes: int = 32,
    dtau_evolve: float = 1e-3,
    epsilon_entropy: float = ENTROPY_FLOOR,
    region: OrbitRegion | None = None,
) -> dict:
    """Period-accumulated forms of every flux.

    Each time node's snapshot is evaluated once and serves all four values
    per quantity:
      frozen          loop integral with W frozen at tau = 0 (printed form):
                      the loop value of the tau = 0 node's snapshot,
      time_consistent the printed parametric integral with W(tau) regenerated
                      at each quadrature node (diagonal sampling),
      balance         trapezoidal time integral over [0, T] of the
                      instantaneous balance forms (loop + volume term),
      direct_change   Q(T) - Q(0) of the region-restricted quantity, the
                      independent reference for `balance`.

    Once nodal lines of W enter the region, the svn volume integrand
    W div(w) grows like 1/W near them and its node quadrature loses
    meaning; direct_change stays reliable and the reported deviation makes
    the breakdown explicit.
    """
    if region is None:
        region = OrbitRegion(orbit, pgrid)
    T = orbit.period
    taus = np.linspace(0.0, T, n_nodes + 1)
    names = [(q, None, q) for q in ("sigma", "svn", "purity")] + [("renyi", b, f"renyi_{b:g}") for b in betas]

    inst = {key: [] for _, _, key in names}
    diag = {key: [] for _, _, key in names}
    frozen: dict[str, float] = {}
    rejected: dict[str, str] = {}
    q: dict[int, dict] = {}  # region quantities at the first and last node

    phis = propagate_states(evaluate_state(spec, cgrid, 0.0), potential, taus, dtau_evolve)
    for j, tau_j in enumerate(taus):
        snap = Snapshot(wigner_transform(phis[tau_j], pgrid), orbit, potential, nu_max, region)
        blk = snap.block(betas, epsilon_entropy)
        # Diagonal (time-consistent) form: the orbit sample nearest tau_j.
        i_pt = int(round(tau_j / orbit.dtau)) % orbit.x.size
        w_pt, dj_pt, vx_pt = float(snap.w_on[i_pt]), float(snap.dj_on[i_pt]), orbit.vx[i_pt]

        for name, beta, key in names:
            entry = blk[name] if beta is None else blk["renyi"][f"{beta:g}"]
            if j == 0:
                frozen[key] = entry.get("loop", float("nan"))
            if "full" in entry:
                inst[key].append(entry["full"])
            else:
                rejected.setdefault(key, entry.get("rejected", entry.get("volume_term_rejected", "")))
                inst[key].append(np.nan)
            diag[key].append(_diagonal_sample(name, beta, w_pt, dj_pt, vx_pt, epsilon_entropy))
        if j in (0, n_nodes):
            q[j] = _region_quantities(snap, betas, epsilon_entropy)

    out: dict = {"period": T, "n_nodes": n_nodes}
    q_start, q_end = q[0], q[n_nodes]
    for _, _, key in names:
        balance = float(np.trapezoid(np.asarray(inst[key]), taus))
        time_consistent = float(np.trapezoid(np.asarray(diag[key]), taus))
        direct = None
        if q_start[key] is not None and q_end[key] is not None:
            direct = q_end[key] - q_start[key]
            if key == "purity":
                direct = direct / (2.0 * np.pi)
        entry = {"frozen": frozen[key], "time_consistent": time_consistent, "balance": balance, "direct_change": direct}
        if direct is not None and np.isfinite(balance):
            entry["rel_dev"] = _rel_dev(balance, direct)
        if key in rejected:
            entry["rejected"] = rejected[key]
        out[key] = entry
    return out

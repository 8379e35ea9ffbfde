"""Continuity-equation flux quantifiers along classical orbits.

Probability, von Neumann entropy, purity and Renyi entropy transport are
one family, held here in one table of Quantity rows (quantities(betas)
lists them).  Each row gives a loop flux along the orbit,

    sign * integral dtau  weight(W) Delta J_k  dx/dtau,

a volume correction sign * int p(W) div(w) dV over the orbit interior,
and a region quantity factor * int density(W) dA over the same interior,
whose rate the balance form loop + volume matches:

    row      loop            volume                 region quantity
    sigma    - 1             (none)                 int W
    svn      + ln|W|         + W                    -int W ln|W|
    purity   - W             - W^2                  2 pi int W^2  (rate / 2 pi)
    renyi    - W**(beta-1)   - (beta-1) W**beta     int W**beta

Every loop flux vanishes identically when the current is classical.  A
row's domain rule says where its weight is defined: ln|W| and a power
with beta < 1 need |W| > epsilon, a fractional power needs W >= 0 above
the floor.  The loop form, its per-point form in period_accumulation and
the volume term all read that rule from the row.  The svn and purity
densities are the integrands of observables.von_neumann_entropy and
observables.purity.

Each Wigner snapshot is evaluated once: a Snapshot computes the current,
Delta J_k, div(w), one bicubic spline of W (spline.GridSpline, sampled
on the orbit and at the region's quadrature nodes) and one of Delta J_k
(fitted on the cells the orbit touches and sampled there) at most once
each, and every loop flux, volume term and region quantity of that
snapshot is read from those samples.  Region quantities integrate over
the orbit's own boundary by Green's theorem (OrbitRegion), with no
lattice and no staircase.  Volume corrections are evaluated
on the node window of their mask, the bounding box of its true nodes
(about 1 % of the grid for the orbit interior, whose node mask
OrbitRegion computes once per orbit): div(w), the W**p weight, the
integrand and its quadrature never touch a node outside it.

The oracle, oracle_rates, cross-checks every row at once by central
finite differences of its region quantity between the states at
tau -/+ dtau_fd.  propagate_states branches them off the state at tau
itself, the one whose loop fluxes are checked, with a few steps of the
spectral propagator each way, so the difference measures the flux
formulas and not the main run's time-step error.  The oracle never
touches the current series or its truncation order; that independence
is what lets it adjudicate the loop formulas.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .currents import DEFAULT_NU_MAX, CurrentField, MaskedField, delta_current, div_w, wigner_current
from .errors import RejectionError
from .classical import ClassicalOrbit
from .grid import CoordinateGrid, PhaseSpaceGrid, Window, integrate_volume, node_window
from .observables import (
    ENTROPY_FLOOR,
    PURITY_FACTOR,
    entropy_density,
    negative_nodes,
    power_field,
    require_beta,
    require_power_domain,
)
from .potentials import PotentialModel
from .spline import GridSpline
from .states import CAPTURE_LIMIT, StateSpec, Wavefunction, WignerField, evaluate_state, evolve_wavefunction, wigner_transform

#: Fewest orbit samples in the loop rule of OrbitRegion's region quadrature (all of them if fewer).
REGION_LOOP_SAMPLES = 256
#: Gauss-Legendre nodes in x per loop sample of OrbitRegion's region quadrature.
REGION_GAUSS_NODES = 16


@dataclass(frozen=True, eq=False)
class Quantity:
    """One row of the flux table (see the module docstring).

    loop is (sign, weight): weight maps W at orbit samples inside the
    domain to the weight of Delta J_k.  volume is (sign, p), with p mapping
    W on a node window to the factor of div(w), or None for no volume
    correction.  density(W, floor) is the integrand of the region quantity,
    which is scaled by factor.  A fractional row is undefined where W is
    negative above the floor, a singular row where |W| <= epsilon.
    """

    name: str
    loop: tuple[float, Callable]
    volume: tuple[float, Callable] | None
    density: Callable
    factor: float = 1.0
    beta: float | None = None
    fractional: bool = False
    singular: bool = False
    #: Warn on an unnormalized field: ln|cW| = ln c + ln|W| shifts the weight.
    scale_sensitive: bool = False

    @property
    def tag(self) -> str:
        """The row's key within its block section: its name, or beta for a Renyi row."""
        return self.name if self.beta is None else f"{self.beta:g}"

    @property
    def key(self) -> str:
        """The row's key in oracle_rates and period_accumulation."""
        return self.name if self.beta is None else f"renyi_{self.tag}"

    def entry(self, block: dict) -> dict:
        """The row's entry in an instantaneous block; Renyi entries nest under "renyi"."""
        return (block if self.beta is None else block["renyi"])[self.tag]

    def check(self, epsilon: float) -> None:
        """Reject parameters the row is undefined for: its beta, or epsilon of a singular weight."""
        if self.beta is not None:
            require_beta(self.beta)
        if self.singular and epsilon <= 0:
            raise RejectionError(f"epsilon must be positive, got {epsilon}")

    def outside(self, w, epsilon: float):
        """The domain rule at W samples w: masks (negative, small) of those outside it."""
        negative = self.fractional and negative_nodes(w, epsilon)
        small = self.singular and np.abs(w) <= epsilon
        return negative, small


SIGMA = Quantity("sigma", loop=(-1.0, lambda w: 1.0), volume=None, density=lambda v, floor: v)
SVN = Quantity(
    "svn", loop=(1.0, lambda w: np.log(np.abs(w))), volume=(1.0, lambda v: v), density=entropy_density,
    singular=True, scale_sensitive=True,
)
PURITY = Quantity(
    "purity", loop=(-1.0, lambda w: w), volume=(-1.0, np.square), density=lambda v, floor: np.square(v),
    factor=PURITY_FACTOR,
)


def renyi(beta: float) -> Quantity:
    """The Renyi row of one beta; a fractional power reads |W| inside its domain."""
    fractional = not float(beta).is_integer()
    return Quantity(
        "renyi",
        loop=(-1.0, lambda w: (abs(w) if fractional else w) ** (beta - 1.0)),
        volume=(-1.0, lambda v: (beta - 1.0) * power_field(v, beta)),
        density=lambda v, floor: power_field(v, beta, floor),
        beta=beta, fractional=fractional, singular=beta < 1.0,
    )


def quantities(betas=()) -> list[Quantity]:
    """The flux table: sigma, svn, purity and one Renyi row per beta."""
    return [SIGMA, SVN, PURITY, *map(renyi, betas)]


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
    """Quadrature over the orbit interior, built once per orbit.

    Region quantities use Green's theorem, int int_Omega g dx dk = loop
    integral of G dk with G(x, k) = int_{x_min}^{x} g(s, k) ds, which
    integrates over the orbit's own boundary (Sommariva & Vianello, BIT 47,
    441 (2007)).  The loop integral is the periodic trapezoid rule with
    dk = v_k dtau over about REGION_LOOP_SAMPLES orbit samples: every
    stride-th one, counted from the rightmost, with the largest stride that
    divides the sample count and keeps at least that many (every sample
    when there are fewer).  G is the REGION_GAUSS_NODES-point
    Gauss-Legendre rule in x from the orbit's x_min to each of them, so
    every node lies in the orbit's bounding box.  The sign of the signed
    area orients the loop, so a reversed orbit has the same nodes and
    weights.  Volume corrections integrate over the plain boolean node
    mask instead, on its node window.
    """

    def __init__(self, orbit: ClassicalOrbit, grid: PhaseSpaceGrid) -> None:
        self.orbit = orbit
        self.grid = grid
        self.mask = orbit_interior_mask(orbit, grid)
        #: Bounding box of the mask's nodes, where volume corrections are evaluated.
        self.window = node_window(grid.shape, self.mask)

        n = orbit.x.size
        stride = max(d for d in range(1, max(n // REGION_LOOP_SAMPLES, 1) + 1) if n % d == 0)
        loop = slice(int(np.argmax(orbit.x)) % stride, None, stride)
        x, k = orbit.x[loop], orbit.k[loop]
        dk = orbit.vk[loop] * (stride * orbit.dtau)
        x_min = orbit.x.min()
        t, gauss = np.polynomial.legendre.leggauss(REGION_GAUSS_NODES)
        half = 0.5 * (x - x_min)
        #: Quadrature nodes (x, k) of region integrals: REGION_GAUSS_NODES per loop sample.
        self.nodes = ((x_min + np.outer(half, 1.0 + t)).ravel(), np.repeat(k, t.size))
        #: Quadrature weights of the nodes, oriented by the sign of the signed area.
        self.weights = (np.sign(np.sum(x * dk)) * np.outer(half * dk, gauss)).ravel()

    def integral(self, values: np.ndarray) -> float:
        """Integral over the enclosed region of a density sampled at the nodes."""
        return float(np.dot(values, self.weights))


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
    the grid) and the potential; volume terms need the potential and read
    div(w), computed once per node window.  A snapshot holds several
    grid-sized arrays, so keep it no longer than its time node.
    """

    w: WignerField
    orbit: ClassicalOrbit | None = None
    potential: PotentialModel | None = None
    nu_max: int = DEFAULT_NU_MAX
    region: OrbitRegion | None = None
    epsilon_mask: float | None = None
    _divs: dict = field(default_factory=dict, init=False, repr=False)

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

    def div(self, window: Window) -> MaskedField:
        """div(w) on a node window, computed once per window."""
        key = tuple((s.start, s.stop) for s in window)
        if key not in self._divs:
            self._divs[key] = div_w(self.current, self.w, self.epsilon_mask, window)
        return self._divs[key]

    @cached_property
    def w_spline(self) -> GridSpline:
        """W's spline, fitted on the cells that the orbit samples and the region's nodes touch."""
        reach = [(self.orbit.x, self.orbit.k)] if self.orbit is not None else []
        if self.region is not None:
            reach.append(self.region.nodes)
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
    def region_w(self) -> np.ndarray:
        """W at the region's quadrature nodes."""
        return self.w_spline.ev(*self.region.nodes)

    def loop(self, q: Quantity, epsilon: float = ENTROPY_FLOOR) -> float:
        """Loop flux of one row, rejected where an orbit sample lies outside its domain.

        epsilon is the |W| floor of a singular weight and the sign floor of a
        fractional power.
        """
        q.check(epsilon)
        if q.scale_sensitive:
            total = self.w.total()
            if abs(total - 1.0) > CAPTURE_LIMIT:
                warnings.warn(
                    f"{q.name}_flux on an unnormalized field (integral {total:.6g}): "
                    "the ln W weight is scale-sensitive", RuntimeWarning, stacklevel=3,
                )
        w_on = self.w_on
        negative, small = q.outside(w_on, epsilon)
        if np.any(negative):
            raise RejectionError(
                f"W**(beta-1) undefined for beta={q.beta}: {int(np.count_nonzero(negative))} negative orbit samples"
            )
        if np.any(small):
            i = int(np.argmax(small))
            raise RejectionError(
                f"|W|={abs(w_on[i]):.3e} <= epsilon at orbit sample {i} "
                f"(x={self.orbit.x[i]:.6g}, k={self.orbit.k[i]:.6g})"
            )
        sign, weight = q.loop
        return sign * _loop_sum(weight(w_on), self.dj_on, self.orbit)

    def volume(self, q: Quantity, mask: np.ndarray | None = None, window: Window | None = None) -> VolumeTermResult:
        """Unsigned volume correction int p(W) div(w) dV of one row over a node mask (see volume_term).

        Evaluated on the mask's node window: window if given (it must hold
        every true node of mask), else the bounding box of mask, or the
        whole grid for mask None.
        """
        if window is None:
            window = node_window(self.w.grid.shape, mask)
        dv = self.div(window)
        if q.fractional:
            # whether W**beta is defined is decided on the whole grid
            require_power_domain(self.w.values, q.beta)
        _, p = q.volume
        integrand = p(self.w.values[window]) * dv.values
        keep = dv.valid if mask is None else (dv.valid & mask[window])
        n_region = self.w.values.size if mask is None else int(np.count_nonzero(mask))
        masked = n_region - int(np.count_nonzero(keep))
        return VolumeTermResult(integrate_volume(self.w.grid, integrand, mask=keep, window=window), masked)

    def quantity(self, q: Quantity, floor: float = ENTROPY_FLOOR) -> float:
        """Region quantity of one row: factor * int density(W) over the orbit interior."""
        return q.factor * self.region.integral(q.density(self.region_w, floor))

    def block_entry(self, q: Quantity, epsilon: float = ENTROPY_FLOOR) -> dict:
        """One row's block entry: loop flux, volume term, balance form.

        A Renyi row is one member of a family whose fractional members are
        undefined on negative W, so its rejections stay in its entry; it
        also reports its region power integral and the rate loop / integral.
        The rows without beta reject the snapshot instead.
        """
        per_entry = q.beta is not None
        try:
            flux = self.loop(q, epsilon)
        except RejectionError as exc:
            if not per_entry:
                raise
            return {"rejected": str(exc)}
        entry = {"loop": flux}
        if q.volume is None:
            entry["full"] = flux
        else:
            try:
                vt = self.volume(q, self.region.mask, self.region.window)
                sign, _ = q.volume
                entry.update(volume_term=vt.value, masked_nodes=vt.masked_in_region, full=flux + sign * vt.value)
            except RejectionError as exc:
                if not per_entry:
                    raise
                entry["volume_term_rejected"] = str(exc)
        if per_entry:
            try:
                power_integral = self.quantity(q, epsilon)
                entry["region_power_integral"] = power_integral
                if power_integral > 0:
                    entry["rate"] = flux / power_integral
            except RejectionError as exc:
                entry["rate_rejected"] = str(exc)
        return entry

    def block(self, betas, epsilon_entropy: float = ENTROPY_FLOOR) -> dict:
        """All loop fluxes, volume terms and balance forms (see instantaneous_block)."""
        entries = [(q, self.block_entry(q, epsilon_entropy)) for q in quantities(betas)]
        block: dict = {"tau": self.w.tau, **{q.name: e for q, e in entries if q.beta is None}}
        block["renyi"] = {q.tag: e for q, e in entries if q.beta is not None}
        return block


def sigma_flux(w: WignerField, orbit: ClassicalOrbit, potential: PotentialModel, nu_max: int = DEFAULT_NU_MAX) -> float:
    """Probability flux across the orbit: instantaneous rate of the enclosed probability."""
    return Snapshot(w, orbit, potential, nu_max).loop(SIGMA)


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
    return Snapshot(w, orbit, potential, nu_max).loop(SVN, epsilon)


def purity_flux(
    w: WignerField, orbit: ClassicalOrbit, potential: PotentialModel, nu_max: int = DEFAULT_NU_MAX
) -> float:
    """W-weighted loop flux, the loop form of the purity rate (no 2 pi factor)."""
    return Snapshot(w, orbit, potential, nu_max).loop(PURITY)


def renyi_flux(
    w: WignerField,
    orbit: ClassicalOrbit,
    potential: PotentialModel,
    nu_max: int = DEFAULT_NU_MAX,
    beta: float = 2.0,
    floor: float = ENTROPY_FLOOR,
) -> float:
    """W**(beta-1)-weighted loop flux; beta follows the Renyi-entropy rules.

    A fractional beta rejects negative orbit samples above the floor, and
    beta < 1, whose weight is singular at W = 0, also |W| <= floor.
    """
    return Snapshot(w, orbit, potential, nu_max).loop(renyi(beta), floor)


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
    is masked contribute zero and are counted.  div(w), the weight and the
    quadrature are evaluated on the region's node window (the bounding box
    of its true nodes; the whole grid for region None), and only its nodes
    are checked for non-finite values; a non-integer beta is still rejected
    when W has negative nodes above the floor anywhere on the grid.
    """
    q = SVN if weight == "one" else PURITY if weight == "w" else renyi(float(weight))
    return Snapshot(w, potential=potential, nu_max=nu_max, epsilon_mask=epsilon).volume(q, region)


def oracle_times(tau: float, dtau_fd: float) -> tuple[float, float]:
    """The two times, tau - dtau_fd and tau + dtau_fd, that the oracle central-differences.

    Every caller that propagates oracle states or looks them up takes the
    times from here, so the keys agree to the last bit.
    """
    return (tau - dtau_fd, tau + dtau_fd)


def propagate_states(
    phi0: Wavefunction, potential: PotentialModel, times, dtau_evolve: float
) -> dict[float, Wavefunction]:
    """The state at each requested absolute time, from one split-step sweep out of phi0 at phi0.tau.

    Times >= phi0.tau are reached in ascending order from the running
    state and earlier times in descending order from phi0, each leg in
    max(1, round(|leg| / dtau_evolve)) equal steps, so the step count is
    linear in the span of the times.  Each state is tagged with its
    requested time, which is also its key.
    """
    if not dtau_evolve > 0:
        raise RejectionError(f"dtau_evolve must be positive, got {dtau_evolve}")
    times, start = set(times), phi0.tau
    out = {}
    for leg_times in (sorted(t for t in times if t >= start), sorted((t for t in times if t < start), reverse=True)):
        phi, prev = phi0, start
        for t in leg_times:
            if t != prev:
                n_steps = max(1, int(round(abs(t - prev) / dtau_evolve)))
                phi = evolve_wavefunction(phi, potential, (t - prev) / n_steps, n_steps)
                phi.tau = t
            out[t], prev = phi, t
    return out


def oracle_rates(
    states: dict, tau: float, region: OrbitRegion, betas, dtau_fd: float = 1e-3, floor: float = ENTROPY_FLOOR
) -> dict:
    """Independent instantaneous rate of every row's region quantity at tau, keyed by Quantity.key.

    Takes the states at oracle_times(tau, dtau_fd) from states, a map of
    time to state produced by propagate_states, builds W at both on the
    region's grid and central-differences each region quantity between
    them (sigma, svn, purity as 2 pi int W^2, the Renyi power integrals).
    A row whose quantity is undefined gets its RejectionError as value.
    """
    if not (np.isfinite(dtau_fd) and dtau_fd > 0):
        raise RejectionError(f"dtau_fd must be positive and finite, got {dtau_fd}")
    times = oracle_times(tau, dtau_fd)
    missing = [t for t in times if t not in states]
    if missing:
        raise RejectionError(f"no oracle state at tau={missing[0]!r}")
    pair = [Snapshot(wigner_transform(states[t], region.grid), region=region) for t in times]
    out = {}
    for q in quantities(betas):
        try:
            before, after = (snap.quantity(q, floor) for snap in pair)
            out[q.key] = (after - before) / (2.0 * dtau_fd)
        except RejectionError as exc:
            out[q.key] = exc
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
    block: dict, states: dict, region: OrbitRegion, betas, dtau_fd: float = 1e-3, floor: float = ENTROPY_FLOOR
) -> dict:
    """Add oracle rates and relative deviations to an instantaneous block.

    The rates come from oracle_rates(states, block["tau"], ...).  A row
    with a factor (purity's 2 pi) compares its balance form with the rate
    divided by it, and also reports that adjusted rate and the unadjusted
    deviation.
    """
    rates = oracle_rates(states, block["tau"], region, betas, dtau_fd, floor)
    for q in quantities(betas):
        entry, rate = q.entry(block), rates[q.key]
        if "rejected" in entry:
            continue
        if isinstance(rate, RejectionError):
            entry["oracle_rejected"] = str(rate)
            continue
        entry["oracle"] = rate
        adjusted = rate / q.factor
        if q.factor != 1.0:
            entry["oracle_2pi_adjusted"] = adjusted
        if "full" in entry:
            entry["rel_dev"] = _rel_dev(entry["full"], adjusted)
            if q.factor != 1.0:
                entry["rel_dev_unadjusted"] = _rel_dev(entry["full"], rate)
    return block


def _diagonal_sample(q: Quantity, w_pt: float, dj_pt: float, vx_pt: float, epsilon: float) -> float:
    """Loop integrand of one row at one orbit point; NaN outside its domain."""
    negative, small = q.outside(w_pt, epsilon)
    if negative or small:
        return np.nan
    sign, weight = q.loop
    return sign * weight(w_pt) * dj_pt * vx_pt


def _region_quantities(snap: Snapshot, rows, floor: float) -> dict:
    """Region quantity of every row; None where it is undefined."""
    out = {}
    for q in rows:
        try:
            out[q.key] = snap.quantity(q, floor)
        except RejectionError:
            out[q.key] = None
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
      direct_change   Q(T) - Q(0) of the region-restricted quantity, divided
                      by the row's factor: the independent reference for
                      `balance`.

    Once nodal lines of W enter the region, the svn volume integrand
    W div(w) grows like 1/W near them and its node quadrature loses
    meaning; direct_change stays reliable and the reported deviation makes
    the breakdown explicit.
    """
    if region is None:
        region = OrbitRegion(orbit, pgrid)
    T = orbit.period
    taus = np.linspace(0.0, T, n_nodes + 1)
    rows = quantities(betas)

    inst = {q.key: [] for q in rows}
    diag = {q.key: [] for q in rows}
    frozen: dict[str, float] = {}
    rejected: dict[str, str] = {}
    ends: dict[int, dict] = {}  # region quantities at the first and last node

    phis = propagate_states(evaluate_state(spec, cgrid, 0.0), potential, taus, dtau_evolve)
    for j, tau_j in enumerate(taus):
        snap = Snapshot(wigner_transform(phis[tau_j], pgrid), orbit, potential, nu_max, region)
        blk = snap.block(betas, epsilon_entropy)
        # Diagonal (time-consistent) form: the orbit sample nearest tau_j.
        i_pt = int(round(tau_j / orbit.dtau)) % orbit.x.size
        w_pt, dj_pt, vx_pt = float(snap.w_on[i_pt]), float(snap.dj_on[i_pt]), orbit.vx[i_pt]

        for q in rows:
            entry = q.entry(blk)
            if j == 0:
                frozen[q.key] = entry.get("loop", float("nan"))
            if "full" in entry:
                inst[q.key].append(entry["full"])
            else:
                rejected.setdefault(q.key, entry.get("rejected", entry.get("volume_term_rejected", "")))
                inst[q.key].append(np.nan)
            diag[q.key].append(_diagonal_sample(q, w_pt, dj_pt, vx_pt, epsilon_entropy))
        if j in (0, n_nodes):
            ends[j] = _region_quantities(snap, rows, epsilon_entropy)

    out: dict = {"period": T, "n_nodes": n_nodes}
    start, end = ends[0], ends[n_nodes]
    for q in rows:
        key = q.key
        balance = float(np.trapezoid(np.asarray(inst[key]), taus))
        time_consistent = float(np.trapezoid(np.asarray(diag[key]), taus))
        direct = None
        if start[key] is not None and end[key] is not None:
            direct = (end[key] - start[key]) / q.factor
        entry = {"frozen": frozen[key], "time_consistent": time_consistent, "balance": balance, "direct_change": direct}
        if direct is not None and np.isfinite(balance):
            entry["rel_dev"] = _rel_dev(balance, direct)
        if key in rejected:
            entry["rejected"] = rejected[key]
        out[key] = entry
    return out

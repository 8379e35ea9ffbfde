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
the volume term all read that rule from the row.  Each row also defines
its whole-grid total, Quantity.total = factor * int density(W) dV (the
purity, the entropy -int W ln|W| in nats, renyi_entropy's integral).

An OrbitRegion is built once per orbit and grid, and every snapshot
reads its orbit, its grid and its spline sampling plan from it: the
region is the one way they reach a snapshot.  A Snapshot evaluates one
Wigner field on that grid once: Delta J_k (straight from the nu >= 1
series; no full current J is built), div(w) = d_k(Delta J_k / W) (two
k-derivatives, none along x), one bicubic spline of W (spline.GridSpline,
sampled on the orbit and at the region's quadrature nodes) and one of
Delta J_k (sampled on the orbit) at most once each, and every loop flux,
volume term and region quantity of that snapshot is read from those
samples.  The region's SamplingPlan holds the node span both splines are
fitted on, the axes' slope operators that fit them, and the cell and
Hermite weights of every orbit sample and quadrature node.  Region
quantities integrate over the orbit's own boundary by Green's theorem,
with no lattice and no staircase.  Volume corrections are evaluated on
the region's window, the bounding box of the orbit interior's nodes
(about 1 % of the grid): the W**p weight, the integrand and its
quadrature never touch a node outside it, and div(w) differentiates only
the window's x-rows.

Snapshot.quantities is the one read of every row's region quantity: a
value, or the row's RejectionError where the quantity is undefined.  The
oracle, oracle_rates, cross-checks every row at once by central finite
differences of two such reads, of the states at tau -/+ dtau_fd, and
period_accumulation's direct_change differences two, at its end nodes.
The oracle takes its states from the run's one EigenPropagator, the
expansion that also gives the state at tau whose loop fluxes are checked,
so both sides see the same trajectory and the difference measures the
flux formulas.  The oracle never touches the current series or its
truncation order; that independence is what lets it adjudicate the loop
formulas.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .currents import DEFAULT_NU_MAX, MaskedField, delta_current, div_w
from .errors import RejectionError
from .classical import ClassicalOrbit
from .grid import PhaseSpaceGrid, integrate_volume
from .potentials import PotentialModel
from .spline import GridSpline, SamplingPlan
from .states import CAPTURE_LIMIT, EigenPropagator, WignerField, wigner_transform

#: Fewest orbit samples in the loop rule of OrbitRegion's region quadrature (all of them if fewer).
REGION_LOOP_SAMPLES = 256
#: Gauss-Legendre nodes in x per loop sample of OrbitRegion's region quadrature.
REGION_GAUSS_NODES = 16
#: Default magnitude floor below which nodes drop out of entropy quadratures.
ENTROPY_FLOOR = 1e-30
#: Weyl normalisation of the purity, PURITY_FACTOR * int W^2.
PURITY_FACTOR = 2.0 * np.pi


def entropy_density(values: np.ndarray, floor: float = ENTROPY_FLOOR) -> np.ndarray:
    """-W ln|W| on nodes with |W| > floor, zero elsewhere."""
    keep = np.abs(values) > floor
    out = np.zeros_like(values)
    out[keep] = -values[keep] * np.log(np.abs(values[keep]))
    return out


def require_beta(beta: float) -> None:
    """Reject a Renyi order that is not positive or equals 1."""
    if beta <= 0 or beta == 1.0:
        raise RejectionError(f"beta must be positive and different from 1, got {beta}")


def negative_nodes(values: np.ndarray, floor: float = ENTROPY_FLOOR) -> np.ndarray:
    """Nodes where W < 0 with |W| > floor: where a non-integer power of W is undefined."""
    return (values < 0.0) & (np.abs(values) > floor)


def require_power_domain(values: np.ndarray, beta: float, floor: float = ENTROPY_FLOOR) -> None:
    """Reject a beta for which W**beta is undefined on the given nodes.

    beta must be positive and different from 1; a non-integer beta also
    needs every node above the floor to be non-negative.
    """
    require_beta(beta)
    if not float(beta).is_integer():
        negative = int(np.count_nonzero(negative_nodes(values, floor)))
        if negative:
            raise RejectionError(
                f"W**beta undefined for non-integer beta={beta}: {negative} negative nodes above floor"
            )


def power_field(values: np.ndarray, beta: float, floor: float = ENTROPY_FLOOR) -> np.ndarray:
    """W**beta with the signed-power convention and magnitude floor.

    Nodes with |W| <= floor contribute zero.  Even integer beta is always
    allowed; odd integer beta keeps the sign; non-integer beta requires a
    non-negative field above the floor (see require_power_domain).
    """
    require_power_domain(values, beta, floor)
    keep = np.abs(values) > floor
    out = np.zeros_like(values, dtype=float)
    out[keep] = values[keep] ** (int(beta) if float(beta).is_integer() else beta)
    return out


@dataclass(frozen=True, eq=False)
class Quantity:
    """One row of the flux table (see the module docstring).

    loop is (sign, weight): weight maps W at orbit samples inside the
    domain to the weight of Delta J_k.  volume is (sign, p), with p(W,
    floor) mapping W on the region's window to the factor of div(w), or
    None for no volume correction.  density(W, floor) is the integrand of
    the region quantity, which is scaled by factor.  A fractional row is
    undefined where W is negative above the floor, a singular row where
    |W| <= epsilon.
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

    def total(self, w: WignerField, floor: float = ENTROPY_FLOOR) -> float:
        """The row's whole-grid quantity, factor * int density(W) dV: purity 1 for a pure state."""
        self.check(floor)
        return self.factor * integrate_volume(w.grid, self.density(w.values, floor))


SIGMA = Quantity("sigma", loop=(-1.0, lambda w: 1.0), volume=None, density=lambda v, floor: v)
SVN = Quantity(
    "svn", loop=(1.0, lambda w: np.log(np.abs(w))), volume=(1.0, lambda v, floor: v), density=entropy_density,
    singular=True, scale_sensitive=True,
)
PURITY = Quantity(
    "purity", loop=(-1.0, lambda w: w), volume=(-1.0, lambda v, floor: np.square(v)),
    density=lambda v, floor: np.square(v), factor=PURITY_FACTOR,
)


def renyi(beta: float) -> Quantity:
    """The Renyi row of one beta; a fractional power reads |W| inside its domain."""
    fractional = not float(beta).is_integer()
    return Quantity(
        "renyi",
        loop=(-1.0, lambda w: (abs(w) if fractional else w) ** (beta - 1.0)),
        volume=(-1.0, lambda v, floor: (beta - 1.0) * power_field(v, beta, floor)),
        density=lambda v, floor: power_field(v, beta, floor),
        beta=beta, fractional=fractional, singular=beta < 1.0,
    )


def quantities(betas=()) -> list[Quantity]:
    """The flux table: sigma, svn, purity and one Renyi row per beta."""
    return [SIGMA, SVN, PURITY, *map(renyi, betas)]


def renyi_entropy(w: WignerField, beta: float, floor: float = ENTROPY_FLOOR) -> float:
    """(1 - beta)^-1 ln integral of W**beta."""
    integral = renyi(beta).total(w, floor)
    if integral <= 0.0:
        raise RejectionError(f"integral of W**{beta} is {integral:.3e}, not positive")
    return float(np.log(integral) / (1.0 - beta))


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
    """An orbit on a grid and the quadrature over its interior, built once per orbit.

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
    weights.  Volume corrections sum over the grid nodes inside the orbit
    polygon instead: window is their bounding box, a rectangle of nodes
    (empty when the interior holds none), and inside is the interior's
    node mask cut to it.  Every volume term reads these two, and no node
    outside the window.

    The region holds everything of a snapshot that depends on the orbit and
    the grid alone: the orbit, the grid, window and inside, the quadrature
    nodes and weights, and plan, the spline.SamplingPlan of the orbit
    samples ("orbit") and the quadrature nodes ("nodes"), built on first
    use and shared by every snapshot on the region.
    """

    def __init__(self, orbit: ClassicalOrbit, grid: PhaseSpaceGrid) -> None:
        self.orbit = orbit
        self.grid = grid
        mask = orbit_interior_mask(orbit, grid)
        spans = (np.flatnonzero(np.any(mask, axis=axis)) for axis in (1, 0))
        #: Bounding box of the interior's nodes, where volume corrections are evaluated.
        self.window = tuple(slice(int(i[0]), int(i[-1]) + 1) if i.size else slice(0, 0) for i in spans)
        #: The interior's node mask on the window.
        self.inside = mask[self.window]

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

    @cached_property
    def plan(self) -> SamplingPlan:
        """Where every snapshot's splines are fitted and sampled: at the orbit samples and the nodes."""
        return SamplingPlan(self.grid, orbit=(self.orbit.x, self.orbit.k), nodes=self.nodes)

    def integral(self, values: np.ndarray) -> float:
        """Integral over the enclosed region of a density sampled at the nodes."""
        return float(np.dot(values, self.weights))


@dataclass(eq=False)
class Snapshot:
    """One Wigner snapshot on an orbit region and its derived fields, each computed at most once.

    The region gives the orbit, the grid (the field must lie on it) and the
    sampling plan of both splines.  The orbit is checked to lie two cells
    inside the grid.  Fields are lazy: region quantities never sum the
    current series; loop fluxes need the potential and read Delta J_k, the
    only part of the current a snapshot builds; volume terms need the
    potential and read div(w) = d_k(Delta J_k / W), computed once on the
    region's window from Delta J_k and W alone.  A snapshot holds several
    grid-sized arrays, so keep it no longer than its time node.
    """

    w: WignerField
    region: OrbitRegion
    potential: PotentialModel | None = None
    nu_max: int = DEFAULT_NU_MAX
    #: The |W| floor of the phase-velocity quotient in div(w).
    epsilon_mask: float | None = None
    #: The floor of every row's domain rule, volume weight and density (see Quantity).
    epsilon_entropy: float = ENTROPY_FLOOR

    def __post_init__(self) -> None:
        grid, orbit = self.w.grid, self.orbit
        if grid != self.region.grid:
            raise RejectionError("the field's grid is not the orbit region's grid")
        if (
            np.min(orbit.x) < grid.x_min + 2 * grid.h_x
            or np.max(orbit.x) > grid.x_max - 2 * grid.h_x
            or np.min(orbit.k) < grid.k_min + 2 * grid.h_k
            or np.max(orbit.k) > grid.k_max - 2 * grid.h_k
        ):
            raise RejectionError("orbit leaves the safe grid interior (two-cell margin)")

    @property
    def orbit(self) -> ClassicalOrbit:
        """The region's orbit, along which the loop fluxes run."""
        return self.region.orbit

    @cached_property
    def dj_k(self) -> np.ndarray:
        """Delta J_k on the grid, summed from the nu >= 1 series."""
        return delta_current(self.w, self.potential, self.nu_max)

    @cached_property
    def div(self) -> MaskedField:
        """div(w) = d_k(Delta J_k / W) on the region's window."""
        return div_w(self.w, self.dj_k, self.epsilon_mask, self.region.window)

    @cached_property
    def w_spline(self) -> GridSpline:
        """W's spline, fitted on the region's plan."""
        return GridSpline(self.w.values, self.region.plan)

    @cached_property
    def w_on(self) -> np.ndarray:
        """W at the orbit samples."""
        return self.w_spline.at("orbit")

    @cached_property
    def dj_on(self) -> np.ndarray:
        """Delta J_k at the orbit samples, from a spline fitted on the region's plan."""
        return GridSpline(self.dj_k, self.region.plan).at("orbit")

    @cached_property
    def region_w(self) -> np.ndarray:
        """W at the region's quadrature nodes."""
        return self.w_spline.at("nodes")

    def loop(self, q: Quantity) -> float:
        """Loop flux of one row, rejected where an orbit sample lies outside its domain."""
        epsilon = self.epsilon_entropy
        q.check(epsilon)
        if q.scale_sensitive:
            total = self.w.total()
            if abs(total - 1.0) > CAPTURE_LIMIT:
                warnings.warn(
                    f"{q.name} loop flux on an unnormalized field (integral {total:.6g}): "
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
        return sign * float(np.sum(weight(w_on) * self.dj_on * self.orbit.vx) * self.orbit.dtau)

    def volume(self, q: Quantity) -> tuple[float, int]:
        """Unsigned volume correction int p(W) div(w) dV of one row over the orbit interior.

        Evaluated on the region's window: p(W), the integrand and its
        quadrature read no node outside it.  Nodes where the phase-velocity
        quotient is masked contribute zero; returns the value and their
        count within the interior.  A fractional row is rejected when W has
        negative nodes above the floor anywhere on the grid.
        """
        window, inside, dv, floor = self.region.window, self.region.inside, self.div, self.epsilon_entropy
        if q.fractional:
            # whether W**beta is defined is decided on the whole grid
            require_power_domain(self.w.values, q.beta, floor)
        _, p = q.volume
        integrand = p(self.w.values[window], floor) * dv.values
        keep = dv.valid & inside
        masked = int(np.count_nonzero(inside)) - int(np.count_nonzero(keep))
        return integrate_volume(self.w.grid, integrand, mask=keep, window=window), masked

    def quantity(self, q: Quantity) -> float:
        """Region quantity of one row: factor * int density(W) over the orbit interior."""
        return q.factor * self.region.integral(q.density(self.region_w, self.epsilon_entropy))

    def quantities(self, rows) -> dict:
        """Region quantity of every row, keyed by Quantity.key; a row's RejectionError where it is undefined."""
        out = {}
        for q in rows:
            try:
                out[q.key] = self.quantity(q)
            except RejectionError as exc:
                # kept without its traceback: the traceback's frames reach this
                # dict and the snapshot, a cycle only the garbage collector frees
                out[q.key] = exc.with_traceback(None)
        return out

    def block_entry(self, q: Quantity) -> dict:
        """One row's block entry: loop flux, volume term, balance form.

        A Renyi row is one member of a family whose fractional members are
        undefined on negative W, so its rejections stay in its entry; it
        also reports its region power integral and the rate loop / integral.
        The rows without beta reject the snapshot instead.
        """
        per_entry = q.beta is not None
        try:
            flux = self.loop(q)
        except RejectionError as exc:
            if not per_entry:
                raise
            return {"rejected": str(exc)}
        entry = {"loop": flux}
        if q.volume is None:
            entry["full"] = flux
        else:
            try:
                value, masked = self.volume(q)
                sign, _ = q.volume
                entry.update(volume_term=value, masked_nodes=masked, full=flux + sign * value)
            except RejectionError as exc:
                if not per_entry:
                    raise
                entry["volume_term_rejected"] = str(exc)
        if per_entry:
            try:
                power_integral = self.quantity(q)
                entry["region_power_integral"] = power_integral
                if power_integral > 0:
                    entry["rate"] = flux / power_integral
            except RejectionError as exc:
                entry["rate_rejected"] = str(exc)
        return entry

    def block(self, betas) -> dict:
        """All loop fluxes, volume terms and balance forms (see instantaneous_block)."""
        entries = [(q, self.block_entry(q)) for q in quantities(betas)]
        block: dict = {"tau": self.w.tau, **{q.name: e for q, e in entries if q.beta is None}}
        block["renyi"] = {q.tag: e for q, e in entries if q.beta is not None}
        return block


def oracle_times(tau: float, dtau_fd: float) -> tuple[float, float]:
    """The two times, tau - dtau_fd and tau + dtau_fd, that the oracle central-differences.

    The one place they are computed: the oracle and the configuration
    check that guards them both take them from here.
    """
    return (tau - dtau_fd, tau + dtau_fd)


def _change(start: dict, end: dict, span: float = 1.0) -> dict:
    """(end - start) / span of every row of two Snapshot.quantities reads, or its first rejection."""
    out = {}
    for key, before in start.items():
        rejected = [r for r in (before, end[key]) if isinstance(r, RejectionError)]
        out[key] = rejected[0] if rejected else (end[key] - before) / span
    return out


def oracle_rates(
    propagator: EigenPropagator, tau: float, region: OrbitRegion, betas, dtau_fd: float = 1e-3,
    floor: float = ENTROPY_FLOOR,
) -> dict:
    """Independent instantaneous rate of every row's region quantity at tau, keyed by Quantity.key.

    Takes the states at oracle_times(tau, dtau_fd) from the propagator,
    builds W at both on the region's grid and central-differences their
    Snapshot.quantities reads (sigma, svn, purity as 2 pi int W^2, the
    Renyi power integrals).  A row whose quantity is undefined at either
    gets the first RejectionError as value.
    """
    if not (np.isfinite(dtau_fd) and dtau_fd > 0):
        raise RejectionError(f"dtau_fd must be positive and finite, got {dtau_fd}")
    rows = quantities(betas)
    before, after = (
        Snapshot(wigner_transform(propagator.state(t), region.grid), region, epsilon_entropy=floor).quantities(rows)
        for t in oracle_times(tau, dtau_fd)
    )
    return _change(before, after, 2.0 * dtau_fd)


def _rel_dev(value: float, reference: float, floor: float = 1e-12) -> float:
    if abs(value) < floor and abs(reference) < floor:
        return 0.0
    return abs(value - reference) / max(abs(reference), floor)


def instantaneous_block(
    w: WignerField,
    region: OrbitRegion,
    potential: PotentialModel,
    nu_max: int,
    betas,
    epsilon_entropy: float = ENTROPY_FLOOR,
    epsilon_mask: float | None = None,
) -> dict:
    """All loop fluxes, volume terms and balance forms of W on the region's orbit, at W's time tag.

    The balance ("full") forms pair each loop value with its volume
    correction over the orbit interior so that they should match the
    oracle rates:
        sigma_full  = sigma_loop
        svn_full    = svn_loop + int W div(w)
        purity_full = purity_loop - int W^2 div(w)      (oracle carries 2 pi)
        renyi_full  = renyi_loop - (beta-1) int W**beta div(w)
    epsilon_mask is the |W| floor of the phase-velocity quotient in div(w).
    """
    return Snapshot(w, region, potential, nu_max, epsilon_mask, epsilon_entropy).block(betas)


def attach_oracles(
    block: dict, propagator: EigenPropagator, region: OrbitRegion, betas, dtau_fd: float = 1e-3,
    floor: float = ENTROPY_FLOOR,
) -> dict:
    """Add oracle rates and relative deviations to an instantaneous block.

    The rates come from oracle_rates(propagator, block["tau"], ...).  A row
    with a factor (purity's 2 pi) compares its balance form with the rate
    divided by it, and also reports that adjusted rate and the unadjusted
    deviation.
    """
    rates = oracle_rates(propagator, block["tau"], region, betas, dtau_fd, floor)
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


def period_accumulation(
    propagator: EigenPropagator,
    region: OrbitRegion,
    nu_max: int,
    betas,
    *,
    n_nodes: int = 32,
    epsilon_entropy: float = ENTROPY_FLOOR,
    epsilon_mask: float | None = None,
) -> dict:
    """Period-accumulated forms of every flux over one period of the region's orbit.

    Each time node's snapshot is evaluated once, into its block and its
    sample at the orbit point nearest tau_j, and each end node's also into
    one Snapshot.quantities read.  After the last node, every row reads its
    four values from them:
      frozen          loop integral with W frozen at tau = 0 (printed form):
                      the loop value of the tau = 0 node's block,
      time_consistent the printed parametric integral with W(tau) regenerated
                      at each quadrature node (diagonal sampling),
      balance         trapezoidal time integral over [0, T] of the blocks'
                      balance forms (loop + volume term),
      direct_change   Q(T) - Q(0) of the region-restricted quantity, divided
                      by the row's factor: the independent reference for
                      `balance`; None where either read rejects the row.
    A row with no balance form at some node reports the first such node's
    rejection.

    The state at each of the n_nodes + 1 equally spaced nodes tau_j on
    [0, T] comes from the propagator, the run's one eigen expansion, under
    whose potential the snapshots are evaluated on the region's grid, with
    the same floors as instantaneous_block; each state is dropped
    once its snapshot is.

    Once nodal lines of W enter the region, the svn volume integrand
    W div(w) grows like 1/W near them and its node quadrature loses
    meaning; direct_change stays reliable and the reported deviation makes
    the breakdown explicit.
    """
    orbit = region.orbit
    T = orbit.period
    taus = np.linspace(0.0, T, n_nodes + 1)
    rows = quantities(betas)

    blocks, samples, ends = [], [], {}
    for j, tau_j in enumerate(taus):
        phi = propagator.state(tau_j)
        snap = Snapshot(
            wigner_transform(phi, region.grid), region, propagator.potential, nu_max, epsilon_mask, epsilon_entropy
        )
        blocks.append(snap.block(betas))
        # Diagonal (time-consistent) form: the orbit sample nearest tau_j.
        i_pt = int(round(tau_j / orbit.dtau)) % orbit.x.size
        samples.append((float(snap.w_on[i_pt]), float(snap.dj_on[i_pt]), orbit.vx[i_pt]))
        if j in (0, n_nodes):
            ends[j] = snap.quantities(rows)

    out: dict = {"period": T, "n_nodes": n_nodes}
    changes = _change(ends[0], ends[n_nodes])
    for q in rows:
        entries = [q.entry(blk) for blk in blocks]
        balance = float(np.trapezoid([e.get("full", np.nan) for e in entries], taus))
        diag = [_diagonal_sample(q, *sample, epsilon_entropy) for sample in samples]
        change = changes[q.key]
        direct = None if isinstance(change, RejectionError) else change / q.factor
        entry = {"frozen": entries[0].get("loop", np.nan), "time_consistent": float(np.trapezoid(diag, taus)),
                 "balance": balance, "direct_change": direct}
        if direct is not None and np.isfinite(balance):
            entry["rel_dev"] = _rel_dev(balance, direct)
        rejected = [e.get("rejected", e.get("volume_term_rejected", "")) for e in entries if "full" not in e]
        if rejected:
            entry["rejected"] = rejected[0]
        out[q.key] = entry
    return out

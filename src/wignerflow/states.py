"""State catalog, Wigner transform, and spectral time evolution.

The catalog covers harmonic-basis-expressible states (eigenstates,
coherent displacements, two-lobe cat superpositions, custom eigenstate
mixes), all with closed-form time dependence under the harmonic well.
Anharmonic dynamics comes from one eigendecomposition per run: the
EigenPropagator diagonalises the Fourier-grid Hamiltonian on a strided
sub-grid of the coordinate grid, projects the initial state onto its
eigenvectors and gives phi(tau) at any tau directly, with no time step.
The split-step evolve_wavefunction is kept as an independent reference.
The quasi-probability field is rebuilt by direct
quadrature of the phase-space convolution at each output time.
The quadrature runs over y >= 0 only: the integrand's conjugate symmetry
in y folds the full lattice onto its half, which makes W real by
construction.  Its y-lattice has the coordinate spacing, so each row of
W samples the wavefunction's not-a-knot cubic spline (spline.pieces) at
one offset from the nodes: the samples are read from a per-row table of
the spline pieces by index, and a sample outside the coordinate grid is
zero by index.  A capture guard compares int W dV with the wavefunction
norm and rejects a phase-space grid too small for the state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import RejectionError
from .grid import CoordinateGrid, PhaseSpaceGrid, integrate_volume
from .potentials import PotentialModel
from .spline import pieces as spline_pieces

#: Largest |phi| tolerated at the coordinate-grid boundary.
BOUNDARY_ENVELOPE = 1e-12

#: Largest |int W dV - ||phi||^2| tolerated: the part of the state's norm
#: that the phase-space grid fails to capture.
CAPTURE_LIMIT = 1e-2

#: Norm drift that makes the split-step propagator reject its own output.
NORM_DRIFT_LIMIT = 1e-8

#: Largest share of |c|^2 the eigenbasis may hold on eigenpairs with
#: E > (pi / h_s)^2 / 8, a quarter of its top kinetic energy.
RESOLUTION_LIMIT = 1e-8

#: Largest bound on |phi| at the eigenbasis domain's edge, over all times.
EDGE_LIMIT = 1e-8

#: The first eigenbasis takes every _START_STRIDE-th node of the coordinate grid's central half.
_START_STRIDE = 4

#: Rows of W built per block of the transform; bounds its sample table.
_TRANSFORM_ROWS = 32


@dataclass
class Wavefunction:
    """Complex samples of phi(x; tau) on a coordinate grid."""

    values: np.ndarray
    grid: CoordinateGrid
    tau: float = 0.0

    def norm(self) -> float:
        """Trapezoidal integral of |phi|^2 over the grid."""
        return float(np.trapezoid(np.abs(self.values) ** 2, dx=self.grid.h))


@dataclass
class WignerField:
    """Real scalar field W(x, k; tau) on a phase-space grid.

    The values are not modified after construction: total() is computed
    once and kept.
    """

    values: np.ndarray
    grid: PhaseSpaceGrid
    tau: float = 0.0
    _total: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise RejectionError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise RejectionError("Wigner field contains non-finite values")

    def total(self) -> float:
        """Quadrature of W over the full grid (1 for a normalized state), computed once per field."""
        if self._total is None:
            self._total = integrate_volume(self.grid, self.values)
        return self._total


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a catalog state.

    kind is one of "harmonic_eigenstate" (param n), "coherent" (x0, k0),
    "cat" (x0, k0; superposition of coherent states at +/-(x0, k0)), or
    "superposition" (terms: sequence of (coefficient, n) pairs over
    harmonic eigenstates, normalized to unit sum of squared magnitudes).
    """

    kind: str
    n: int = 0
    x0: float = 0.0
    k0: float = 0.0
    terms: tuple[tuple[complex, int], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.kind not in ("harmonic_eigenstate", "coherent", "cat", "superposition"):
            raise RejectionError(f"unknown state kind {self.kind!r}")
        for n in (self.n,) if self.kind == "harmonic_eigenstate" else (n for _, n in self.terms):
            if n < 0 or n > 512:
                raise RejectionError(f"eigenstate index out of range: {n}")
        if self.kind == "superposition" and not self.terms:
            raise RejectionError("superposition needs at least one term")
        if self.kind == "superposition" and all(c == 0 for c, _ in self.terms):
            raise RejectionError("superposition coefficients are all zero")


def harmonic_eigenstate(n: int) -> StateSpec:
    return StateSpec("harmonic_eigenstate", n=n)


def coherent(x0: float, k0: float) -> StateSpec:
    return StateSpec("coherent", x0=x0, k0=k0)


def cat(x0: float, k0: float) -> StateSpec:
    return StateSpec("cat", x0=x0, k0=k0)


def superposition(terms) -> StateSpec:
    return StateSpec("superposition", terms=tuple((complex(c), int(n)) for c, n in terms))


def hermite_function(n: int, x: np.ndarray) -> np.ndarray:
    """Normalized harmonic eigenfunction phi_n(x) via the stable recurrence."""
    h0 = np.pi ** (-0.25) * np.exp(-0.5 * x * x)
    if n == 0:
        return h0
    h1 = np.sqrt(2.0) * x * h0
    for m in range(2, n + 1):
        h0, h1 = h1, np.sqrt(2.0 / m) * x * h1 - np.sqrt((m - 1) / m) * h0
    return h1


def _coherent_values(x: np.ndarray, x0: float, k0: float, tau: float) -> np.ndarray:
    # Center rotates with the harmonic flow; the tau/2 zero-point phase keeps
    # the samples equal to the exactly evolved state, not just proportional.
    xc = x0 * np.cos(tau) + k0 * np.sin(tau)
    kc = k0 * np.cos(tau) - x0 * np.sin(tau)
    phase = kc * x - 0.5 * xc * kc - 0.5 * tau
    return np.pi ** (-0.25) * np.exp(-0.5 * (x - xc) ** 2 + 1j * phase)


def evaluate_state(spec: StateSpec, grid: CoordinateGrid, tau: float = 0.0) -> Wavefunction:
    """Sample a catalog state at dimensionless time tau (harmonic dynamics).

    The samples are renormalized on the grid and rejected if the envelope
    has not decayed below BOUNDARY_ENVELOPE at the boundary nodes.
    """
    x = grid.x
    if spec.kind == "harmonic_eigenstate":
        values = hermite_function(spec.n, x) * np.exp(-1j * (spec.n + 0.5) * tau)
    elif spec.kind == "coherent":
        values = _coherent_values(x, spec.x0, spec.k0, tau)
    elif spec.kind == "cat":
        values = _coherent_values(x, spec.x0, spec.k0, tau) + _coherent_values(
            x, -spec.x0, -spec.k0, tau
        )
    else:
        # the real and imaginary parts are scaled to at most 1 in magnitude
        # first, by real division, so neither the norm nor the quotient
        # overflows for parts near the largest or smallest float
        parts = np.array([c for c, _ in spec.terms], dtype=complex).view(float)
        coeffs = (parts / np.max(np.abs(parts))).view(complex)
        coeffs = coeffs / np.linalg.norm(coeffs)
        values = np.zeros_like(x, dtype=complex)
        for c, n in zip(coeffs, (n for _, n in spec.terms)):
            values = values + c * hermite_function(n, x) * np.exp(-1j * (n + 0.5) * tau)
    norm = np.sqrt(np.trapezoid(np.abs(values) ** 2, dx=grid.h))
    if norm == 0.0 or not np.isfinite(norm):
        raise RejectionError("state evaluates to zero or non-finite samples on this grid")
    values = values / norm
    edge = max(abs(values[0]), abs(values[-1]))
    if edge >= BOUNDARY_ENVELOPE:
        raise RejectionError(
            f"insufficient grid extent: boundary amplitude {edge:.3e} >= {BOUNDARY_ENVELOPE:.0e}"
        )
    return Wavefunction(values, grid, tau)


@lru_cache(maxsize=8)
def _half_range_kernel(cgrid: CoordinateGrid, grid: PhaseSpaceGrid) -> tuple[np.ndarray, np.ndarray]:
    """The kernel halves w'_y cos 2ky / pi and w'_y sin 2ky / pi, k >= 0 only.

    Rows are the y nodes and columns the k >= 0 half, grid.k[n_k // 2:], of
    the k axis.  The y-lattice is the coordinate-grid spacing out to
    m = floor(x_max / 2h) nodes, half the coordinate half-range; folding the
    symmetric lattice onto y >= 0 doubles every trapezoid weight except the
    one at y = 0.  The arrays are shared between calls and read-only.
    """
    m = int(np.floor(0.5 * cgrid.x_max / cgrid.h))
    y = np.arange(m + 1) * cgrid.h
    wy = np.full(y.size, 2.0 * cgrid.h)
    wy[0] = wy[-1] = cgrid.h
    phase = 2.0 * np.outer(y, grid.k[grid.n_k // 2 :])
    halves = np.cos(phase) * (wy[:, None] / np.pi), np.sin(phase) * (wy[:, None] / np.pi)
    for half in halves:
        half.setflags(write=False)
    return halves


def _lattice_offsets(cgrid: CoordinateGrid, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interval index s and offset t = x - x_c[s] of each x on the coordinate grid.

    A point within rounding of a node is put on that node (t = 0), so that
    its samples land on nodes exactly; otherwise 0 < t < h.
    """
    r = (x - cgrid.x[0]) / cgrid.h
    node = np.rint(r)
    on_node = np.abs(r - node) <= 4 * np.finfo(float).eps * cgrid.n
    s = np.where(on_node, node, np.floor(r)).astype(np.intp)
    s = np.clip(s, 0, cgrid.n - 1)
    t = np.where(on_node, 0.0, x - cgrid.x[s])
    return s, t


def _pieces_read(s: np.ndarray, m: int, n: int) -> tuple[int, int]:
    """The spline pieces lo .. hi - 1 that rows in the intervals s read, m either side."""
    return max(int(s.min()) - m, 0), min(int(s.max()) + m + 1, n - 1)


def wigner_transform(phi: Wavefunction, grid: PhaseSpaceGrid) -> WignerField:
    """Build W(x, k) from wavefunction samples by direct y-quadrature.

    W(x, k) = pi^-1 int e^{2iky} f(x, y) dy with f(x, y) = phi(x-y) phi*(x+y),
    integrated by the trapezoid rule over y in [-Y, Y] with Y equal to half
    the coordinate-grid half-range, sampling phi through its not-a-knot
    cubic spline, whose pieces c come from spline.pieces.
    Since f(x, -y) = conj f(x, y) holds exactly on the symmetric lattice,
    the sum folds onto y >= 0:

        W = pi^-1 sum_{y >= 0} w'_y [Re f cos 2ky - Im f sin 2ky],

    with w'_0 = h, w' = 2h inside and h at the end node.  The cosine sum A is
    even in k and the sine sum B odd, so both are computed for k >= 0 only,
    by the two kernel halves, and W(x, k) = A - B, W(x, -k) = A + B.

    The y-lattice has the coordinate spacing h, so x_i -/+ y_j = x_c[s_i -/+ j]
    + t_i with one offset t_i per row: every sample of a row evaluates the
    spline's cubic pieces at the same offset.  A block of rows therefore
    tabulates G[i, q] = sum_p c[p, q] t_i^(3-p) by one small matmul, over
    only the intervals q its rows read (m either side of its s_i), and
    reads phi(x_i -/+ y_j) = G[i, s_i -/+ j] by a gather from the
    zero-padded table.  A sample outside the coordinate grid reads
    a pad, so phi is zero there by index; a sample exactly on the last node
    (t_i = 0) reads that node's value, as the spline does.

    W is real by construction, so no imaginary residue is left to check.
    Instead, the transform is rejected when the grid misses part of the
    state: when |int W dV - ||phi||^2| exceeds CAPTURE_LIMIT.
    """
    cgrid = phi.grid
    if cgrid.h > grid.h_x * (1 + 1e-9):
        raise RejectionError(
            f"coordinate grid (h={cgrid.h:.4g}) is coarser than the phase-space x axis (h={grid.h_x:.4g})"
        )
    if cgrid.x_max < grid.x_max * (1 - 1e-12):
        raise RejectionError(
            f"coordinate grid extent {cgrid.x_max} does not cover the phase-space x axis {grid.x_max}"
        )
    cos_half, sin_half = _half_range_kernel(cgrid, grid)
    m = cos_half.shape[0] - 1
    n_neg = grid.n_k // 2
    skip = cos_half.shape[1] - n_neg  # an odd n_k's k = 0 column has no mirror
    n = cgrid.n
    coeffs = np.ascontiguousarray(spline_pieces(phi.values, cgrid.h)).view(float)
    s, t = _lattice_offsets(cgrid, grid.x)

    # Table columns: m pads, the n - 1 cubic pieces, the last node, m pads.
    table = np.zeros((_TRANSFORM_ROWS, n + 2 * m), dtype=complex)
    reals = table.view(float)
    windows = sliding_window_view(table, m + 1, axis=1)
    f = np.empty((_TRANSFORM_ROWS, m + 1), dtype=complex)
    values = np.empty(grid.shape)
    for start in range(0, grid.n_x, _TRANSFORM_ROWS):
        rows = slice(start, min(start + _TRANSFORM_ROWS, grid.n_x))
        b = rows.stop - start
        tb = t[rows]
        lo, hi = _pieces_read(s[rows], m, n)
        np.matmul(tb[:, None] ** np.arange(3, -1, -1), coeffs[:, 2 * lo : 2 * hi], out=reals[:b, 2 * (m + lo) : 2 * (m + hi)])
        table[:b, m + n - 1] = np.where(tb == 0.0, phi.values[-1], 0.0)
        i = np.arange(b)
        plus = np.conj(windows[i, s[rows] + m])
        np.multiply(windows[i, s[rows]][:, ::-1], plus, out=f[:b])
        even, odd = f[:b].real @ cos_half, f[:b].imag @ sin_half
        values[rows, n_neg:] = even - odd
        values[rows, n_neg - 1 :: -1] = (even + odd)[:, skip:]
    w = WignerField(values, grid, phi.tau)
    defect = abs(w.total() - phi.norm())
    if defect > CAPTURE_LIMIT:
        raise RejectionError(
            f"grid capture defect |int W dV - norm| = {defect:.3e} exceeds {CAPTURE_LIMIT:.0e}; "
            "the phase-space grid misses part of the state"
        )
    return w


def evolve_wavefunction(
    phi: Wavefunction, potential: PotentialModel, dtau: float, steps: int
) -> Wavefunction:
    """Symmetric split-step propagation under k^2/2 + u(x).

    Each step is e^{-i dtau u/2} F^-1 e^{-i dtau kappa^2/2} F e^{-i dtau u/2}
    (Feit, Fleck & Steiger 1982), applied in place to one working copy of
    the samples: the phase factors multiply it in place and numpy.fft
    transforms it into itself (out=), so a step allocates no array.  The
    input's samples are left untouched.

    Second-order accurate in dtau; negative dtau propagates backward (the
    scheme is unitary either way).  Rejects its output when the trapezoidal
    norm drifts by more than NORM_DRIFT_LIMIT, which signals aliasing or a
    non-finite potential value on the grid.
    """
    if steps < 0:
        raise RejectionError(f"step count must be >= 0, got {steps}")
    if steps == 0:
        return Wavefunction(phi.values.copy(), phi.grid, phi.tau)
    if dtau == 0.0 or not np.isfinite(dtau):
        raise RejectionError(f"invalid time step {dtau}")
    x = phi.grid.x
    kappa = 2.0 * np.pi * np.fft.fftfreq(phi.grid.n, d=phi.grid.h)
    # a non-finite phase is rejected below, so it need not warn here
    with np.errstate(over="ignore", invalid="ignore"):
        half_v = np.exp(-0.5j * dtau * potential.u(x))
        full_t = np.exp(-0.5j * dtau * kappa**2)
    if not (np.all(np.isfinite(half_v)) and np.all(np.isfinite(full_t))):
        raise RejectionError("potential or kinetic phase is non-finite on the grid")
    norm0 = phi.norm()
    values = phi.values.astype(complex, copy=True)
    for _ in range(steps):
        values *= half_v
        np.fft.fft(values, out=values)
        values *= full_t
        np.fft.ifft(values, out=values)
        values *= half_v
    out = Wavefunction(values, phi.grid, phi.tau + dtau * steps)
    drift = abs(out.norm() - norm0)
    if not np.isfinite(drift) or drift > NORM_DRIFT_LIMIT:
        raise RejectionError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}; enlarge the grid"
        )
    return out


def require_time(tau: float, grid: CoordinateGrid) -> None:
    """Reject a time tau at which float64 keeps no phase e^{-iE tau} of the grid's top kinetic energy.

    That energy is (pi / h)^2 / 2, and the phase is lost once
    eps * |tau| * (pi / h)^2 / 2 exceeds 1, with eps the float64 machine
    epsilon: beyond |tau| = 2.2e11 on a 2048-node grid of half-width 16.
    A tau that is not a number is rejected too.
    """
    limit = 2.0 / (np.finfo(float).eps * (np.pi / grid.h) ** 2)
    if not abs(tau) <= limit:
        raise RejectionError(
            f"tau={tau!r} lies beyond |tau| = {limit:.3g}, where float64 keeps no phase "
            "of the coordinate grid's top kinetic energy"
        )


def kinetic_matrix(n: int, h: float) -> np.ndarray:
    """The Fourier-grid matrix of k^2/2 on n periodic nodes of spacing h, n even.

    It is F^-1 diag(kappa^2 / 2) F with kappa the numpy.fft frequencies of
    period n h, in closed form (Kosloff & Kosloff, J. Comput. Phys. 52, 35
    (1983)): (pi / h)^2 (1 + 2 / n^2) / 6 on the diagonal and
    (-1)^d (pi / (n h))^2 / sin^2(pi d / n) at offset d.  The matrix is
    symmetric Toeplitz and is built from its first row.
    """
    d = np.arange(1, n)
    row = np.empty(n)
    row[0] = (np.pi / h) ** 2 * (1.0 + 2.0 / n**2) / 6.0
    row[1:] = np.where(d % 2, -1.0, 1.0) * (np.pi / (n * h)) ** 2 / np.sin(np.pi * d / n) ** 2
    i = np.arange(n)
    return row[np.abs(i[:, None] - i[None, :])]


def _upsample(samples: np.ndarray, m: int) -> np.ndarray:
    """Trigonometric interpolation of n periodic samples onto m >= n nodes, by FFT zero-padding.

    The Nyquist coefficient of the even n is split evenly between the
    frequencies -n/2 and +n/2, so the interpolant is the one whose
    kinetic energy kinetic_matrix holds.
    """
    n = samples.size
    if m == n:
        return samples
    spectrum = np.fft.fft(samples)
    padded = np.zeros(m, dtype=complex)
    half = n // 2
    padded[:half] = spectrum[:half]
    padded[m - half :] = spectrum[half:]
    padded[m - half] *= 0.5
    padded[half] = padded[m - half]
    return np.fft.ifft(padded) * (m / n)


class EigenPropagator:
    """phi(tau) = V e^{-iE(tau - tau0)} c, from one Fourier-grid eigendecomposition.

    Built once per (phi0, potential).  The Hamiltonian k^2/2 + u(x) is
    diagonalised, by one numpy.linalg.eigh, on a sub-grid of phi0's
    coordinate grid: every stride-th node of a centred domain of span
    nodes, periodic over span * h, with kinetic_matrix's closed form.
    phi0 is projected once onto the eigenvectors V, c = V^T phi0, and a
    state is the sub-grid samples V (e^{-iE(tau - tau0)} c), upsampled to
    the domain's coordinate nodes by FFT zero-padding and zero outside it.
    At tau0 = phi0.tau the state is phi0 itself.

    The basis is worked out from phi0 and the potential.  It starts at
    every 4th node of the coordinate grid's central half, or of the whole
    grid if |phi0| exceeds EDGE_LIMIT on or beyond the central half's edge
    nodes.  While the resolution share, the share of |c|^2 on eigenpairs
    with E > (pi / h_s)^2 / 8 at sub-grid spacing h_s, exceeds
    RESOLUTION_LIMIT, the stride halves.  While the edge bound,
    sum |c_n| |V_edge,n|, which bounds |phi| at the domain's edge node at
    every tau, exceeds EDGE_LIMIT, the domain doubles.  A state that would
    need a stride below 1 or a domain beyond the coordinate grid is
    rejected, and the message names the number that failed.
    """

    def __init__(self, phi0: Wavefunction, potential: PotentialModel) -> None:
        self.phi0, self.potential = phi0, potential
        n = phi0.grid.n
        self.span, self.stride = n // 2, _START_STRIDE
        interior = np.s_[self._start + 1 : self._start + self.span - 1]
        if np.max(np.abs(np.delete(phi0.values, interior))) > EDGE_LIMIT:
            self.span = n
        while True:
            self._diagonalize()
            if not self.resolution_share <= RESOLUTION_LIMIT:
                if self.stride == 1:
                    raise RejectionError(
                        f"under-resolved state: resolution share {self.resolution_share:.3e} exceeds "
                        f"{RESOLUTION_LIMIT:.0e} with every coordinate node in the eigenbasis; "
                        "refine the coordinate grid"
                    )
                self.stride //= 2
            elif not self.edge_bound <= EDGE_LIMIT:
                if self.span == n:
                    raise RejectionError(
                        f"state reaches the coordinate grid's edge: edge bound {self.edge_bound:.3e} "
                        f"exceeds {EDGE_LIMIT:.0e} on the whole grid; widen the coordinate grid"
                    )
                self.span *= 2
            else:
                break

    @property
    def _start(self) -> int:
        """Index of the domain's first coordinate node."""
        return (self.phi0.grid.n - self.span) // 2

    def _diagonalize(self) -> None:
        """Eigenpairs, coefficients, resolution share and edge bound of the current basis."""
        grid, start = self.phi0.grid, self._start
        nodes = np.arange(start, start + self.span, self.stride)
        h_s = self.stride * grid.h
        with np.errstate(over="ignore", invalid="ignore"):
            u = np.asarray(self.potential.u(grid.x[nodes]), dtype=float)
        if not np.all(np.isfinite(u)):
            raise RejectionError(f"potential {self.potential.label!r} is non-finite on the eigenbasis nodes")
        hamiltonian = kinetic_matrix(nodes.size, h_s)
        hamiltonian[np.diag_indices(nodes.size)] += u
        self.energies, self.vectors = np.linalg.eigh(hamiltonian)
        self.coefficients = self.vectors.T @ self.phi0.values[nodes]
        weight = np.abs(self.coefficients) ** 2
        total = weight.sum()
        high = weight[self.energies > (np.pi / h_s) ** 2 / 8].sum()
        self.resolution_share = float(high / total) if total > 0 else 0.0
        self.edge_bound = float(np.abs(self.coefficients) @ np.abs(self.vectors[0]))

    def health(self) -> dict:
        """The basis and its checks: node count, the x-range of its domain, resolution share, edge bound."""
        x = self.phi0.grid.x
        return {
            "basis_nodes": int(self.energies.size),
            "x_range": [float(x[self._start]), float(x[self._start + self.span - 1])],
            "resolution_share": self.resolution_share,
            "edge_bound": self.edge_bound,
        }

    def state(self, tau: float) -> Wavefunction:
        """phi at tau: phi0 itself at phi0.tau, else the expansion's; require_time rejects a tau."""
        phi0 = self.phi0
        if tau == phi0.tau:
            return phi0
        require_time(tau, phi0.grid)
        z = np.exp(-1j * self.energies * (tau - phi0.tau)) * self.coefficients
        # V is real: one product with the (real, imaginary) pairs of z
        sub = (self.vectors @ z.view(float).reshape(-1, 2)).view(complex).ravel()
        values = np.zeros(phi0.grid.n, dtype=complex)
        values[self._start : self._start + self.span] = _upsample(sub, self.span)
        return Wavefunction(values, phi0.grid, tau)

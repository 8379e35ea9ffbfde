"""State catalog, Wigner transform, and spectral time evolution.

The catalog covers harmonic-basis-expressible states (eigenstates,
coherent displacements, two-lobe cat superpositions, custom eigenstate
mixes), all with closed-form time dependence under the harmonic well.
Anharmonic dynamics is generated on the wavefunction by a symmetric
split-step propagator, stepped in place on one working copy with
numpy.fft, and the quasi-probability field is rebuilt by direct
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

#: Norm drift that makes the propagator reject its own output.
NORM_DRIFT_LIMIT = 1e-8

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
    """Real scalar field W(x, k; tau) on a phase-space grid."""

    values: np.ndarray
    grid: PhaseSpaceGrid
    tau: float = 0.0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise RejectionError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise RejectionError("Wigner field contains non-finite values")

    def total(self) -> float:
        """Quadrature of W over the full grid (1 for a normalized state)."""
        return integrate_volume(self.grid, self.values)


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
        if self.kind == "harmonic_eigenstate" and (self.n < 0 or self.n > 512):
            raise RejectionError(f"eigenstate index out of range: {self.n}")
        if self.kind == "superposition" and not self.terms:
            raise RejectionError("superposition needs at least one term")


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
        coeffs = np.array([c for c, _ in spec.terms], dtype=complex)
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
def _half_range_kernel(cgrid: CoordinateGrid, grid: PhaseSpaceGrid) -> np.ndarray:
    """The kernel w'_y [cos 2ky; -sin 2ky] / pi, rows interleaved per y node.

    Row 2j multiplies Re f(x, y_j) and row 2j + 1 multiplies Im f(x, y_j),
    so a complex f viewed as reals meets it in one matmul; shape
    (2(m+1), n_k).  The y-lattice is the coordinate-grid spacing out to
    m = floor(x_max / 2h) nodes, half the coordinate half-range; folding the
    symmetric lattice onto y >= 0 doubles every trapezoid weight except the
    one at y = 0.  The array is shared between calls and read-only.
    """
    m = int(np.floor(0.5 * cgrid.x_max / cgrid.h))
    y = np.arange(m + 1) * cgrid.h
    wy = np.full(y.size, 2.0 * cgrid.h)
    wy[0] = wy[-1] = cgrid.h
    phase = 2.0 * np.outer(y, grid.k)
    kernel = np.stack([np.cos(phase), -np.sin(phase)], axis=1) * (wy[:, None, None] / np.pi)
    kernel = kernel.reshape(2 * y.size, grid.n_k)
    kernel.setflags(write=False)
    return kernel


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

    with w'_0 = h, w' = 2h inside and h at the end node.

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
    kernel = _half_range_kernel(cgrid, grid)
    m = kernel.shape[0] // 2 - 1
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
        np.matmul(f[:b].view(float), kernel, out=values[rows])
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

"""State catalog, Wigner transform fidelity, spectral propagation."""

import math

import numpy as np
import pytest

from wignerflow import states
from wignerflow.errors import RejectionError
from wignerflow.grid import CoordinateGrid, PhaseSpaceGrid, integrate_volume
from wignerflow.potentials import PotentialModel, harmonic, pure_quartic
from wignerflow.states import (
    EigenPropagator,
    Wavefunction,
    cat,
    coherent,
    evaluate_state,
    evolve_wavefunction,
    harmonic_eigenstate,
    hermite_function,
    kinetic_matrix,
    superposition,
    wigner_transform,
)
from wignerflow.spline import pieces as spline_pieces


def full_lattice_transform(phi, grid):
    """W by the dense complex quadrature over the full symmetric y-lattice."""
    cgrid = phi.grid
    m = int(np.floor(0.5 * cgrid.x_max / cgrid.h))
    y = np.arange(-m, m + 1) * cgrid.h
    wy = np.full(y.size, cgrid.h)
    wy[0] = wy[-1] = 0.5 * cgrid.h
    interpolate = pytest.importorskip("scipy.interpolate")
    spline = interpolate.CubicSpline(cgrid.x, phi.values, extrapolate=False)
    minus = np.nan_to_num(spline(grid.x[:, None] - y[None, :]))
    plus = np.nan_to_num(spline(grid.x[:, None] + y[None, :]))
    return (((minus * np.conj(plus)) * wy) @ np.exp(2j * np.outer(y, grid.k))).real / np.pi


def interleaved_kernel_transform(phi, grid):
    """W by one product of f with the interleaved kernel over every k column.

    The kernel's rows 2j and 2j + 1 hold w'_y [cos 2ky; -sin 2ky] / pi over
    the whole k axis, and meet Re f and Im f of the module's y >= 0 lattice
    (the same spline samples) in one matmul: the transform before its
    k-parity split.
    """
    cgrid = phi.grid
    m = int(np.floor(0.5 * cgrid.x_max / cgrid.h))
    y = np.arange(m + 1) * cgrid.h
    wy = np.full(y.size, 2.0 * cgrid.h)
    wy[0] = wy[-1] = cgrid.h
    phase = 2.0 * np.outer(y, grid.k)
    kernel = (np.stack([np.cos(phase), -np.sin(phase)], axis=1) * (wy[:, None, None] / np.pi)).reshape(2 * y.size, grid.n_k)
    c = spline_pieces(phi.values, cgrid.h)
    s, t = states._lattice_offsets(cgrid, grid.x)
    padded = np.zeros((grid.n_x, cgrid.n + 2 * m), dtype=complex)
    padded[:, m : m + cgrid.n - 1] = np.einsum("ip,pq->iq", t[:, None] ** np.arange(3, -1, -1), c)
    padded[:, m + cgrid.n - 1] = np.where(t == 0.0, phi.values[-1], 0.0)
    rows = np.arange(grid.n_x)[:, None]
    f = padded[rows, s[:, None] + m - np.arange(m + 1)] * np.conj(padded[rows, s[:, None] + m + np.arange(m + 1)])
    return f.view(float) @ kernel


CATALOG_SPECS = [
    harmonic_eigenstate(0),
    harmonic_eigenstate(1),
    harmonic_eigenstate(3),
    coherent(2.0, 0.0),
    coherent(1.0, 0.5),
    cat(1.5, 0.0),
    superposition([(1.0, 0), (1.0j, 2)]),
]


class TestEvaluateState:
    def test_ground_state_value_at_origin(self):
        # closed form pi^(-1/4) exp(-x^2/2) at x = 0
        assert hermite_function(0, np.array([0.0]))[0] == pytest.approx(
            np.pi ** (-0.25), abs=1e-12
        )

    def test_ground_state_peak_on_grid(self, cgrid):
        phi = evaluate_state(harmonic_eigenstate(0), cgrid)
        # no node sits exactly at x = 0; the nearest is h/2 away
        assert np.max(np.abs(phi.values)) == pytest.approx(np.pi ** (-0.25), abs=1e-4)

    def test_zero_displacement_coherent_is_ground_state(self, cgrid):
        a = evaluate_state(coherent(0.0, 0.0), cgrid)
        b = evaluate_state(harmonic_eigenstate(0), cgrid)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    @pytest.mark.parametrize("spec", CATALOG_SPECS, ids=lambda s: s.kind + str(s.n))
    def test_normalization(self, spec, cgrid):
        phi = evaluate_state(spec, cgrid, tau=0.3)
        assert phi.norm() == pytest.approx(1.0, abs=1e-10)

    def test_eigenstate_phase_evolution(self, cgrid):
        # analytic phase exp(-i (n + 1/2) tau) for n = 2 at tau = 0.7
        p0 = evaluate_state(harmonic_eigenstate(2), cgrid, 0.0)
        pt = evaluate_state(harmonic_eigenstate(2), cgrid, 0.7)
        np.testing.assert_allclose(
            pt.values, p0.values * np.exp(-1j * 2.5 * 0.7), atol=1e-12
        )

    def test_insufficient_extent_rejected(self, cgrid):
        with pytest.raises(RejectionError, match="boundary amplitude"):
            evaluate_state(coherent(14.0, 0.0), cgrid)

    def test_unknown_kind_rejected(self):
        from wignerflow.states import StateSpec

        with pytest.raises(RejectionError):
            StateSpec("squeezed")

    @pytest.mark.parametrize("coeff", [1e308 + 1e308j, 1.7e308 - 1.7e308j, 1e-320])
    def test_superposition_of_extreme_coefficients_is_its_state(self, coeff, cgrid):
        # the squared norm of 1e308 + 1e308j used to overflow with a
        # RuntimeWarning and the state to evaluate to zero
        phi = evaluate_state(superposition([(coeff, 0)]), cgrid)
        ground = evaluate_state(harmonic_eigenstate(0), cgrid)
        assert np.max(np.abs(np.abs(phi.values) - np.abs(ground.values))) < 1e-12

    @pytest.mark.parametrize("terms", [[(0.0, 0), (0j, 1)], [(-0.0, 3)]])
    def test_superposition_of_zero_coefficients_rejected(self, terms):
        # it used to normalize 0 / 0 with a RuntimeWarning and reject later
        with pytest.raises(RejectionError, match="coefficients are all zero"):
            superposition(terms)

    @pytest.mark.parametrize("n", [-1, 513, 10**300], ids=["negative", "beyond_512", "huge"])
    def test_superposition_term_index_out_of_range_rejected(self, n):
        # hermite_function(-1) is phi_1, and a huge n loops n times
        with pytest.raises(RejectionError, match="eigenstate index out of range"):
            superposition([(1.0, 0), (1.0, n)])


class TestWignerTransform:
    def test_ground_state_closed_form(self, ground_w, pgrid):
        # Gaussian integral gives W = pi^-1 exp(-x^2 - k^2)
        X, K = pgrid.meshes()
        ref = np.exp(-X**2 - K**2) / np.pi
        assert np.max(np.abs(ground_w.values - ref)) < 1e-6

    def test_first_excited_negativity_at_origin(self, excited_w, pgrid):
        # Laguerre form: W_1(0, 0) = -1/pi
        interpolate = pytest.importorskip("scipy.interpolate")
        spline = interpolate.RectBivariateSpline(pgrid.x, pgrid.k, excited_w.values)
        assert float(spline.ev(0.0, 0.0)) == pytest.approx(-1.0 / np.pi, abs=1e-5)

    def test_total_is_computed_once_per_field(self, monkeypatch, pgrid):
        calls = []

        def counted(*args, _integrate=states.integrate_volume):
            calls.append(args)
            return _integrate(*args)

        monkeypatch.setattr(states, "integrate_volume", counted)
        w = states.WignerField(np.ones(pgrid.shape), pgrid)
        assert w.total() == w.total() == pytest.approx(256.0, rel=1e-12)
        assert len(calls) == 1

    @pytest.mark.parametrize("spec", CATALOG_SPECS, ids=lambda s: s.kind + str(s.n))
    def test_normalization_and_bound(self, spec, pgrid, cgrid):
        w = wigner_transform(evaluate_state(spec, cgrid), pgrid)
        assert w.total() == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(w.values)) <= 1.0 / np.pi + 1e-9

    def test_marginal_reproduces_position_density(self, pgrid, cgrid):
        phi = evaluate_state(cat(1.5, 0.0), cgrid)
        w = wigner_transform(phi, pgrid)
        wk = np.full(pgrid.n_k, pgrid.h_k)
        wk[0] = wk[-1] = pgrid.h_k / 2
        marginal = w.values @ wk
        density = pytest.importorskip("scipy.interpolate").CubicSpline(cgrid.x, np.abs(phi.values) ** 2)(pgrid.x)
        assert np.max(np.abs(marginal - density)) < 1e-6

    @pytest.mark.parametrize("spec", CATALOG_SPECS[:4], ids=lambda s: s.kind + str(s.n))
    def test_purity_consistency(self, spec, pgrid, cgrid):
        w = wigner_transform(evaluate_state(spec, cgrid), pgrid)
        assert 2 * np.pi * integrate_volume(pgrid, w.values**2) == pytest.approx(1.0, abs=1e-4)

    def test_coarse_coordinate_grid_rejected(self, pgrid):
        phi = evaluate_state(harmonic_eigenstate(0), CoordinateGrid(16.0, 64))
        with pytest.raises(RejectionError, match="coarser"):
            wigner_transform(phi, pgrid)

    def test_short_coordinate_grid_rejected(self):
        phi = evaluate_state(harmonic_eigenstate(0), CoordinateGrid(8.0, 1024))
        wide = PhaseSpaceGrid.centered(10.0, 8.0, 256, 256)
        with pytest.raises(RejectionError, match="does not cover"):
            wigner_transform(phi, wide)

    def test_capture_guard_rejects_a_truncated_k_range(self, cgrid):
        # k_max = 4 keeps 76 % of coherent(0, 3.5)'s norm; the imaginary part
        # of the full-lattice quadrature stays at 1e-16 all the same
        narrow = PhaseSpaceGrid.centered(8.0, 4.0, 256, 256)
        phi = evaluate_state(coherent(0.0, 3.5), cgrid)
        with pytest.raises(RejectionError, match=r"capture defect .* 2\.398e-01"):
            wigner_transform(phi, narrow)

    @pytest.mark.parametrize("case", ["ground", "cat", "evolved_coherent", "aligned_ground", "aligned_edge"])
    def test_half_range_matches_the_full_lattice_quadrature(self, case, pgrid, cgrid):
        if case.startswith("aligned"):
            # h = h_x = 1/16 and every x_i is a coordinate node (t_i = 0);
            # the y-reach of the last row ends on the last coordinate node
            cgrid = CoordinateGrid(255 / 32, 256)
            pgrid = PhaseSpaceGrid.centered(129 / 32, 4.0, 130, 129)
        if case in ("ground", "aligned_ground"):
            phi = evaluate_state(harmonic_eigenstate(0), cgrid)
        elif case == "cat":
            phi = evaluate_state(cat(1.5, 0.0), cgrid)
        elif case == "evolved_coherent":
            phi = evolve_wavefunction(evaluate_state(coherent(1.0, 0.5), cgrid), pure_quartic(), 1e-3, 500)
        else:
            # a ground state's last node holds ~1e-14, too little to show
            # whether the sample on it is kept; this tail holds 1e-2 there
            ground = evaluate_state(harmonic_eigenstate(0), cgrid)
            phi = Wavefunction(ground.values + 0.01 * (cgrid.x > 7.5) * np.exp(1j * cgrid.x), cgrid)
        assert np.max(np.abs(wigner_transform(phi, pgrid).values - full_lattice_transform(phi, pgrid))) <= 1e-14


    @pytest.mark.parametrize("n_k", [256, 255], ids=["even", "odd"])
    def test_parity_halves_match_the_full_kernel(self, n_k, cgrid):
        # coherent(1, 0.5) has no symmetry in x or k, so each mirrored column
        # differs from its partner; the odd axis has an unmirrored k = 0 column
        grid = PhaseSpaceGrid.centered(8.0, 8.0, 256, n_k)
        phi = evaluate_state(coherent(1.0, 0.5), cgrid)
        reference = interleaved_kernel_transform(phi, grid)
        got = wigner_transform(phi, grid).values
        assert np.max(np.abs(got - reference)) <= 1e-14 * np.max(np.abs(reference))

    def test_mirrored_half_at_the_largest_accepted_asymmetry(self, cgrid):
        # |k_min + k_max| = 1e-12 k_max is the most PhaseSpaceGrid accepts
        # (to 1e-4 of it here); the mirrored columns then sit up to 8e-12
        # off their nominal -k
        k_max = 8.0 + 7.999e-12
        with pytest.raises(RejectionError, match="symmetric"):
            PhaseSpaceGrid(-8.0, 8.0, -8.0, 8.0 + 8.001e-12, 128, 101)
        grid = PhaseSpaceGrid(-8.0, 8.0, -8.0, k_max, 128, 101)
        phi = evaluate_state(coherent(1.0, 0.5), cgrid)
        reference = interleaved_kernel_transform(phi, grid)
        got = wigner_transform(phi, grid).values
        scale = np.max(np.abs(reference))
        mirrored = grid.n_k // 2
        assert np.max(np.abs(got[:, mirrored:] - reference[:, mirrored:])) <= 1e-14 * scale
        assert np.max(np.abs(got[:, :mirrored] - reference[:, :mirrored])) <= 1e-10 * scale

    @pytest.mark.parametrize("case", ["cat", "evolved_coherent", "aligned_edge"])
    def test_each_block_tabulates_only_the_pieces_it_reads(self, case, pgrid, cgrid, monkeypatch):
        # W is the same, bit for bit, as with every piece tabulated in every block
        if case == "aligned_edge":
            cgrid = CoordinateGrid(255 / 32, 256)
            pgrid = PhaseSpaceGrid.centered(129 / 32, 4.0, 130, 129)
            ground = evaluate_state(harmonic_eigenstate(0), cgrid)
            phi = Wavefunction(ground.values + 0.01 * (cgrid.x > 7.5) * np.exp(1j * cgrid.x), cgrid)
        elif case == "cat":
            phi = evaluate_state(cat(1.5, 0.0), cgrid)
        else:
            phi = evolve_wavefunction(evaluate_state(coherent(1.0, 0.5), cgrid), pure_quartic(), 1e-3, 500)
        restricted = wigner_transform(phi, pgrid).values
        monkeypatch.setattr(states, "_pieces_read", lambda s, m, n: (0, n - 1))
        assert np.array_equal(restricted, wigner_transform(phi, pgrid).values)


#: The field window of the 256 x 256 benchmark grid around the quartic orbit through (1, 0).
FIELD_WINDOW = (slice(83, 173), slice(88, 168))


class TestWindowedTransform:
    @pytest.mark.parametrize("spec", [coherent(1.0, 0.5), cat(1.5, 0.0)], ids=["coherent", "cat"])
    @pytest.mark.parametrize(
        "window", [FIELD_WINDOW, (slice(0, 20), slice(100, 156)), (slice(237, 256), slice(1, 255))],
        ids=["field", "first_rows", "last_rows"],
    )
    def test_window_is_the_whole_grid_cut(self, spec, window, pgrid, cgrid):
        # the products run on a block lattice fixed by the grid, so every
        # node comes from the same arithmetic: equal bit for bit, which
        # bounds the difference well below 2e-15
        phi = evaluate_state(spec, cgrid)
        whole, part = wigner_transform(phi, pgrid), wigner_transform(phi, pgrid, window)
        assert part.grid == pgrid.cut(*window) and part.values.shape == part.grid.shape
        assert np.array_equal(part.values, whole.values[window])
        assert part.tau == whole.tau and part.norm == whole.norm == phi.norm()

    @pytest.mark.parametrize("n_k", [256, 255], ids=["even", "odd"])
    def test_odd_axis_window_is_the_whole_grid_cut(self, n_k, cgrid):
        grid = PhaseSpaceGrid.centered(8.0, 8.0, 64, n_k)
        phi = evaluate_state(coherent(1.0, 0.5), cgrid)
        window = (slice(10, 50), slice(100, n_k - 100))
        assert np.array_equal(wigner_transform(phi, grid, window).values, wigner_transform(phi, grid).values[window])

    def test_whole_window_is_the_whole_transform(self, pgrid, cgrid):
        phi = evaluate_state(cat(1.5, 0.0), cgrid)
        part = wigner_transform(phi, pgrid, pgrid.window)
        assert part.grid is pgrid
        assert np.array_equal(part.values, wigner_transform(phi, pgrid).values)

    def test_asymmetric_k_range_rejected(self, pgrid, cgrid):
        # the k < 0 columns are mirrors of the k >= 0 ones
        phi = evaluate_state(coherent(1.0, 0.5), cgrid)
        with pytest.raises(RejectionError, match="not symmetric about k = 0"):
            wigner_transform(phi, pgrid, (slice(83, 173), slice(88, 170)))


class TestCaptureGuard:
    def test_k_tail_is_the_closed_form(self, cgrid):
        # coherent(0, 3.5) holds 0.5 erfc(0.5) of its norm at |k| > 4
        narrow = PhaseSpaceGrid.centered(8.0, 4.0, 256, 256)
        x_tail, k_tail = states.capture_defect(evaluate_state(coherent(0.0, 3.5), cgrid), narrow)
        assert x_tail < 1e-20
        assert k_tail == pytest.approx(0.5 * math.erfc(0.5), abs=1e-12)

    def test_x_tail_rejected(self, pgrid, cgrid):
        # coherent(6.5, 0) holds 0.5 erfc(1.5) = 0.0169 of its norm at x > 8
        phi = evaluate_state(coherent(6.5, 0.0), cgrid)
        x_tail, k_tail = states.capture_defect(phi, pgrid)
        assert x_tail == pytest.approx(0.5 * math.erfc(1.5), abs=1e-3)
        assert abs(k_tail) < 1e-12
        with pytest.raises(RejectionError, match=r"capture defect = 1\.67\de-02 \(x-tail"):
            wigner_transform(phi, pgrid)
        with pytest.raises(RejectionError, match="capture defect"):
            wigner_transform(phi, pgrid, FIELD_WINDOW)

    def test_window_inside_the_grid_is_not_a_missed_state(self, pgrid, cgrid):
        # the cat's lobes at x = -/+1.5 lie mostly outside these rows; the
        # guard reads the state on the configured grid, not W on the window
        phi = evaluate_state(cat(1.5, 0.0), cgrid)
        window = (slice(112, 144), slice(96, 160))
        part = wigner_transform(phi, pgrid, window)
        assert abs(part.total() - phi.norm()) > 10 * states.CAPTURE_LIMIT
        assert max(map(abs, states.capture_defect(phi, pgrid))) < 1e-12


class TestEvolveWavefunction:
    def test_coherent_state_period_fidelity(self, cgrid):
        # coherent states return after the classical period T = 2 pi
        phi0 = evaluate_state(coherent(2.0, 0.0), cgrid)
        steps = 6284
        phi = evolve_wavefunction(phi0, harmonic(), 2 * np.pi / steps, steps)
        overlap = np.trapezoid(np.conj(phi0.values) * phi.values, dx=cgrid.h)
        assert abs(overlap) ** 2 > 1 - 1e-6

    def test_zero_steps_identity(self, cgrid):
        phi0 = evaluate_state(coherent(1.0, 0.0), cgrid)
        phi = evolve_wavefunction(phi0, harmonic(), 1e-3, 0)
        assert np.array_equal(phi.values, phi0.values)
        assert phi.tau == phi0.tau

    def test_eigenstate_modulus_stationary(self, cgrid):
        # the split-step wobble of a stationary state is O(dtau^2)
        phi0 = evaluate_state(harmonic_eigenstate(2), cgrid)
        phi = evolve_wavefunction(phi0, harmonic(), 1e-4, 5000)
        assert np.max(np.abs(np.abs(phi.values) - np.abs(phi0.values))) < 1e-8

    def test_backward_evolution_reverses(self, cgrid):
        phi0 = evaluate_state(coherent(1.0, 0.5), cgrid)
        fwd = evolve_wavefunction(phi0, pure_quartic(), 1e-3, 400)
        back = evolve_wavefunction(fwd, pure_quartic(), -1e-3, 400)
        assert np.max(np.abs(back.values - phi0.values)) < 1e-10
        assert back.tau == pytest.approx(0.0, abs=1e-12)

    def test_matches_a_numpy_fft_split_step_loop(self, cgrid):
        phi0 = evaluate_state(coherent(1.0, 0.5), cgrid)
        before = phi0.values.copy()
        pot, dtau = pure_quartic(), 1e-3
        kappa = 2.0 * np.pi * np.fft.fftfreq(cgrid.n, d=cgrid.h)
        half_v = np.exp(-0.5j * dtau * pot.u(cgrid.x))
        full_t = np.exp(-0.5j * dtau * kappa**2)
        ref = phi0.values.copy()
        for _ in range(1000):
            ref = half_v * np.fft.ifft(full_t * np.fft.fft(half_v * ref))
        phi = evolve_wavefunction(phi0, pot, dtau, 1000)
        assert np.max(np.abs(phi.values - ref)) <= 1e-12
        assert np.array_equal(phi0.values, before)

    def test_norm_preserved_per_thousand_steps(self, cgrid):
        phi0 = evaluate_state(coherent(1.0, 0.0), cgrid)
        phi = evolve_wavefunction(phi0, pure_quartic(), 1e-3, 1000)
        assert abs(phi.norm() - 1.0) < 1e-10

    def test_non_finite_potential_rejected(self, cgrid):
        phi0 = evaluate_state(harmonic_eigenstate(0), cgrid)
        blowup = PotentialModel("blowup", (0.0, 0.0, 1e308))
        with pytest.raises(RejectionError, match="non-finite"):
            evolve_wavefunction(phi0, blowup, 1e-3, 1)

    def test_negative_step_count_rejected(self, cgrid):
        phi0 = evaluate_state(harmonic_eigenstate(0), cgrid)
        with pytest.raises(RejectionError):
            evolve_wavefunction(phi0, harmonic(), 1e-3, -4)


class TestEigenPropagator:
    @pytest.mark.parametrize("n, h", [(16, 0.3), (64, 1 / 16)])
    def test_kinetic_matrix_is_the_fft_kinetic_operator(self, n, h):
        kappa = 2.0 * np.pi * np.fft.fftfreq(n, d=h)
        reference = np.fft.ifft(0.5 * kappa[:, None] ** 2 * np.fft.fft(np.eye(n), axis=0), axis=0).real
        assert np.max(np.abs(kinetic_matrix(n, h) - reference)) <= 1e-14 * np.max(reference)

    def test_upsampling_is_the_trigonometric_interpolant(self):
        # 8 samples of a real trigonometric polynomial up to the Nyquist
        # frequency 4, whose cosine the interpolant keeps real
        def f(theta):
            return 1.0 + np.sin(theta) + 0.5 * np.cos(3.0 * theta) + 0.25 * np.cos(4.0 * theta)

        coarse, fine = 2.0 * np.pi * np.arange(8) / 8, 2.0 * np.pi * np.arange(32) / 32
        assert np.max(np.abs(states._upsample(f(coarse).astype(complex), 32) - f(fine))) <= 1e-14

    @pytest.mark.parametrize("spec, tau, bound", [
        (coherent(1.0, 0.5), 3.0, 3e-11),  # measured 1.1e-11
        (cat(1.5, 0.0), 4.0, 2e-10),  # measured 7.2e-11
    ], ids=["coherent", "cat"])
    def test_harmonic_states_match_the_closed_form(self, spec, tau, bound, cgrid):
        phi = EigenPropagator(evaluate_state(spec, cgrid), harmonic()).state(tau)
        assert phi.tau == tau
        assert np.max(np.abs(phi.values - evaluate_state(spec, cgrid, tau).values)) <= bound

    @pytest.mark.parametrize("spec, bounds", [
        (coherent(1.0, 0.5), (1e-6, 6e-8)),  # measured 7.1e-7 and 4.5e-8
        (cat(1.5, 0.0), (2.5e-6, 1.5e-7)),  # measured 1.7e-6 and 1.1e-7
    ], ids=["coherent", "cat"])
    def test_split_steps_converge_to_it_as_dt_squared(self, spec, bounds, cgrid):
        # the split-step error at tau = 1 falls 16-fold when dt falls 4-fold:
        # the eigen state is far closer to the exact one than either
        phi0 = evaluate_state(spec, cgrid)
        exact = EigenPropagator(phi0, pure_quartic()).state(1.0).values
        errors = [
            np.max(np.abs(evolve_wavefunction(phi0, pure_quartic(), 1.0 / n, n).values - exact))
            for n in (1000, 4000)
        ]
        assert errors[0] <= bounds[0] and errors[1] <= bounds[1]
        assert 15.8 < errors[0] / errors[1] < 16.2

    def test_initial_time_gives_phi0_itself_and_norm_is_kept(self, cgrid):
        phi0 = evaluate_state(cat(1.5, 0.0), cgrid)
        prop = EigenPropagator(phi0, pure_quartic())
        assert prop.state(0.0) is phi0
        for tau in (-3.0, 1e-3, 7.5):
            assert abs(prop.state(tau).norm() - phi0.norm()) <= 1e-13

    def test_benchmark_grid_starts_and_stays_at_every_4th_central_node(self, cgrid):
        health = EigenPropagator(evaluate_state(coherent(1.0, 0.5), cgrid), pure_quartic()).health()
        assert health["basis_nodes"] == 256
        assert health["x_range"] == [cgrid.x[512], cgrid.x[1535]]
        # measured 1.0e-12 and 1.9e-11
        assert health["resolution_share"] <= 1e-11
        assert health["edge_bound"] <= 1e-10

    def test_high_momentum_state_halves_the_stride(self, cgrid):
        # E = 450 lies above (pi / 4h)^2 / 8 = 315 but below (pi / 2h)^2 / 8
        prop = EigenPropagator(evaluate_state(coherent(0.0, 30.0), cgrid), pure_quartic())
        assert prop.stride == 2
        assert prop.health()["basis_nodes"] == 512
        assert prop.resolution_share <= states.RESOLUTION_LIMIT

    @pytest.mark.parametrize("spec", [coherent(7.0, 0.0), coherent(0.0, 9.0)], ids=["displaced", "outbound"])
    def test_state_beyond_the_central_half_widens_the_domain(self, spec, cgrid):
        # coherent(7, 0) is 0.6 at x = 8 from the start; coherent(0, 9)
        # starts inside and swings out to x = 9, which the edge bound of
        # the central-half basis sees
        prop = EigenPropagator(evaluate_state(spec, cgrid), harmonic())
        assert prop.health()["x_range"] == [-16.0, 16.0]
        assert prop.stride == 4
        assert np.max(np.abs(prop.state(2.0).values - evaluate_state(spec, cgrid, 2.0).values)) <= 1e-12

    def test_unresolved_state_is_rejected_at_stride_1(self):
        # k0 = 15 on h = 16/127: E ~ 112 above (pi / h)^2 / 8 = 78
        phi0 = evaluate_state(coherent(0.0, 15.0), CoordinateGrid(8.0, 128))
        with pytest.raises(RejectionError, match=r"resolution share 9\.998e-01 exceeds 1e-08 with every coordinate node"):
            EigenPropagator(phi0, harmonic())

    def test_state_that_spreads_to_the_grid_edge_is_rejected(self):
        # a free wave packet spreads over any periodic domain
        phi0 = evaluate_state(coherent(0.0, 0.0), CoordinateGrid(8.0, 128))
        with pytest.raises(RejectionError, match=r"edge bound 7\.496e-01 exceeds 1e-08 on the whole grid"):
            EigenPropagator(phi0, PotentialModel("flat", (0.0,)))

    def test_non_finite_potential_rejected(self, cgrid):
        phi0 = evaluate_state(harmonic_eigenstate(0), cgrid)
        blowup = PotentialModel("blowup", (0.0, 0.0, 1e308))
        with pytest.raises(RejectionError, match="'blowup' is non-finite on the eigenbasis nodes"):
            EigenPropagator(phi0, blowup)

    def test_time_beyond_the_phase_limit_rejected(self, cgrid):
        # eps * |tau| * (pi / h)^2 / 2 = 1 at |tau| = 2.23e11 on the benchmark grid
        limit = 2.0 / (np.finfo(float).eps * (np.pi / cgrid.h) ** 2)
        prop = EigenPropagator(evaluate_state(coherent(1.0, 0.5), cgrid), pure_quartic())
        prop.state(-limit)
        for tau in (1.01 * limit, -1e308, float("nan"), float("inf")):
            with pytest.raises(RejectionError, match=r"beyond \|tau\| = 2\.23e\+11, where float64 keeps no phase"):
                prop.state(tau)


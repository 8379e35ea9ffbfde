"""Run one wignerflow configuration in-process, optionally traced per layer.

Usage: python3 perfbench/inproc.py --config CFG --out DIR --result JSON [--trace]

The run is ``cli.run(cli.load_config(CFG), DIR)``, so a traced run follows
whatever orchestration ``cli.run`` has.  With ``--trace`` every layer's
public function is wrapped, from here and not in the program, at every
``wignerflow`` module attribute that binds it.  Each call records a span
(name, start, end, parent) in memory; the spans, counters and accuracy
probes are written to the result file when the run ends.  A layer whose
function no longer exists is skipped and reports zero calls.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

import numpy as np

#: Layer name -> (module, attribute path) of the public callable it times.
LAYERS = {
    "classical.solve_orbit": ("wignerflow.classical", "solve_orbit"),
    "states.evaluate_state": ("wignerflow.states", "evaluate_state"),
    "states.evolve_wavefunction": ("wignerflow.states", "evolve_wavefunction"),
    "states.wigner_transform": ("wignerflow.states", "wigner_transform"),
    "currents.wigner_current": ("wignerflow.currents", "wigner_current"),
    "currents.delta_current": ("wignerflow.currents", "delta_current"),
    "currents.div_w": ("wignerflow.currents", "div_w"),
    "fluxes.spline": ("wignerflow.fluxes", "RectBivariateSpline"),
    "fluxes.interpolate_on_orbit": ("wignerflow.fluxes", "interpolate_on_orbit"),
    "fluxes.OrbitRegion.build": ("wignerflow.fluxes", "OrbitRegion.__init__"),
    "fluxes.OrbitRegion.integral": ("wignerflow.fluxes", "OrbitRegion.integral"),
    "fluxes.instantaneous_block": ("wignerflow.fluxes", "instantaneous_block"),
    "fluxes.attach_oracles": ("wignerflow.fluxes", "attach_oracles"),
    "fluxes.period_accumulation": ("wignerflow.fluxes", "period_accumulation"),
    "cli.run": ("wignerflow.cli", "run"),
}

#: numpy.fft entry points that perform a transform (helpers like fftfreq excluded).
FFT_FUNCTIONS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


def _trapezoid_2d(values: np.ndarray, x: np.ndarray, k: np.ndarray) -> float:
    return float(np.trapezoid(np.trapezoid(values, k, axis=1), x))


def _norm(phi) -> float:
    return float(np.trapezoid(np.abs(phi.values) ** 2, dx=phi.grid.h))


class Tracer:
    """In-memory span recorder that wraps callables where the program binds them."""

    def __init__(self, rejection_type: type[BaseException]):
        self.rejection_type = rejection_type
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.rejections: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def call(self, name, fn, args, kwargs, after=None):
        # A layer re-entering itself (e.g. a spline's ev calling its own
        # __call__) stays one span, so calls are counted at the boundary.
        if self.stack and self.spans[self.stack[-1]][0] == name:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        except self.rejection_type:
            self.rejections[name] += 1
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            self.stack.pop()
        if after is not None:
            after(args, kwargs, result)
        return result

    def record_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))

    # -- installation ------------------------------------------------------
    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def rebind(self, original, replacement, extra_modules=()) -> None:
        """Replace ``original`` at every wignerflow module attribute bound to it."""
        modules = [m for n, m in sys.modules.items() if n == "wignerflow" or n.startswith("wignerflow.")]
        for mod in [*modules, *extra_modules]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, replacement)

    def wrap(self, name: str, original, after=None):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs, after)
        return wrapper

    def install(self, after_hooks: dict) -> None:
        for name, (module_name, path) in LAYERS.items():
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            if isinstance(original, type):
                self.rebind(original, self._traced_class(name, original))
            elif owner_path:
                # A method: wrap it on its class, which every binding shares.
                self._set(owner, attr, self.wrap(name, original, after_hooks.get(name)))
            else:
                self.rebind(original, self.wrap(name, original, after_hooks.get(name)))
        for fname in FFT_FUNCTIONS:
            original = getattr(np.fft, fname, None)
            if original is not None:
                self.rebind(original, self._counted(original), extra_modules=(np.fft,))

    def _counted(self, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counters["numpy.fft.calls"] += 1
            return original(*args, **kwargs)
        return wrapper

    def _traced_class(self, name: str, cls: type) -> type:
        tracer = self

        def count_fit(args, kwargs, result):
            tracer.counters[name + ".fits"] += 1

        class Traced(cls):
            def __init__(self, *args, **kwargs):
                tracer.call(name, super().__init__, args, kwargs, count_fit)

            def __call__(self, *args, **kwargs):
                return tracer.call(name, super().__call__, args, kwargs)

            def ev(self, *args, **kwargs):
                return tracer.call(name, super().ev, args, kwargs)

        Traced.__name__ = cls.__name__
        Traced.__qualname__ = cls.__qualname__
        return Traced

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _after_hooks(tracer: Tracer, states_module) -> dict:
    """Probes computed from each layer call's inputs and outputs, outside its span."""
    evolve_sig = inspect.signature(states_module.evolve_wavefunction)

    def evolve(args, kwargs, out):
        bound = evolve_sig.bind(*args, **kwargs).arguments
        tracer.counters["states.evolve_wavefunction.steps"] += int(bound.get("steps", 0))
        phi = next(iter(bound.values()))
        tracer.record_max("states.evolve_wavefunction.norm_drift_max", abs(_norm(out) - _norm(phi)))

    def transform(args, kwargs, out):
        phi = args[0] if args else next(iter(kwargs.values()))
        n_x, n_k = out.values.shape
        # The y-lattice spans half the coordinate range.  Work of the dense
        # y-quadrature at these shapes: 8 real flops per complex multiply-add;
        # bytes of the integrand, kernel and output.
        n_y = phi.grid.n // 2
        tracer.counters["states.wigner_transform.ops_computed"] += 8 * n_x * n_y * n_k
        tracer.counters["states.wigner_transform.bytes_computed"] += 16 * (n_x * n_y + n_y * n_k + n_x * n_k)
        total = _trapezoid_2d(out.values, out.grid.x, out.grid.k)
        tracer.record_max("states.wigner_transform.norm_defect_max", abs(total - 1.0))

    return {"states.evolve_wavefunction": evolve, "states.wigner_transform": transform}


def closed_form_err(states_module, config) -> float:
    """Max |W - exp(-x^2-k^2)/pi| of the transformed ground state on the run's grids."""
    phi = states_module.evaluate_state(states_module.harmonic_eigenstate(0), config.coordinate_grid)
    w = states_module.wigner_transform(phi, config.grid)
    x, k = config.grid.x, config.grid.k
    exact = np.exp(-x[:, None] ** 2 - k[None, :] ** 2) / np.pi
    return float(np.max(np.abs(w.values - exact)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import wignerflow.cli as cli
    import wignerflow.states as states
    from wignerflow.errors import RejectionError

    config = cli.load_config(args.config)
    result: dict = {}
    tracer = None
    if args.trace:
        tracer = Tracer(RejectionError)
        tracer.install(_after_hooks(tracer, states))
    t0 = time.perf_counter()
    try:
        cli.run(config, args.out)
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    result["run_s"] = t1 - t0
    if tracer is not None:
        names = sorted({s[0] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        result["spans"] = {
            "names": names,
            "rows": [[index[n], start - t0, end - t0, parent] for n, start, end, parent in tracer.spans],
        }
        result["layers"] = list(LAYERS)
        result["rejections"] = dict(tracer.rejections)
        result["counters"] = dict(tracer.counters)
        result["maxima"] = dict(tracer.maxima)
        result["maxima"]["states.wigner_transform.closed_form_err"] = closed_form_err(states, config)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""A run's configuration and the checks on its sizes, without numpy.

RunConfig is the one validation point of a run; the stepper's
SolverConfig and the initial states apply the same checks on modes,
steps and phases from here.  The module imports nothing numerical, so
the command line reads the flag defaults from RunConfig without loading
numpy, and `build` and `verify`, which run only the exact layer, never
load it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from numbers import Integral

from .energy import _check_kp

# the most steps a run, or one of its record blocks, may take: far above
# the longest run of the documents, tests and benchmark (20,000 steps),
# far below a run that would never end
MAX_STEPS = 10 ** 9


def _check_modes(n_modes: int):
    # 2**20 modes, a 16 MiB state, is far above any documented run
    if n_modes < 8 or n_modes > 1 << 20 or n_modes & (n_modes - 1):
        raise ValueError(f"n_modes must be a power of two from 8 to 2**20, got {n_modes}")


def _check_phase(n_modes: int, step: float, name: str = "dt"):
    # the linear phase n^2 step of a retained mode, |n| <= n_modes/2, is
    # a finite float, or exp of it warns and the step yields nan
    if not math.isfinite((n_modes // 2) ** 2 * abs(float(step))):
        raise ValueError(f"{name} = {step!r} is too large for n_modes={n_modes}: the "
                         f"linear phase (n_modes/2)^2 * |{name}| is not a finite float")


def _check_mode(mode: int, n_modes: int):
    # numpy registers its integer types as Integral
    if not isinstance(mode, Integral) or not -n_modes // 2 <= mode < n_modes // 2:
        raise ValueError(f"mode {mode} not representable with {n_modes} modes")


@dataclass(frozen=True)
class RunConfig:
    k: int = 2
    p: int = 2
    n_modes: int = 64
    dt: float = 1e-3
    t_end: float = 1.0
    seed: int = 0
    r_h1: float = 1.0
    decay: float = 3.0
    preset: str = "random"
    amplitude: float = 0.5
    mode: int = 1
    record_dt: float = 0.05
    fd_delta: float = 2e-5
    fd_substeps: int = 10

    def __post_init__(self):
        """The one validation point of a run, so that bad input fails here,
        before any solve or step."""
        _check_kp(self.k, self.p)
        for name, low in (("n_modes", 8), ("seed", 0), ("fd_substeps", 1)):
            value = getattr(self, name)
            # a bool is an int to Python, but never a count a run can use
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an int >= {low}, got {value!r}")
        if self.fd_substeps > MAX_STEPS:
            raise ValueError(f"fd_substeps must be at most {MAX_STEPS}, got {self.fd_substeps}")
        # the .meta.json sidecar records the mode whatever the preset
        if not isinstance(self.mode, int) or isinstance(self.mode, bool):
            raise ValueError(f"mode must be an int, got {self.mode!r}")
        _check_modes(self.n_modes)
        for name in ("dt", "t_end", "record_dt", "fd_delta", "r_h1", "decay", "amplitude"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:
                raise ValueError(f"{name} must be a finite number, got an int too "
                                 "large for a float") from None
            if not finite:
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.preset not in ("random", "planewave"):
            raise ValueError(f"preset must be 'random' or 'planewave', got {self.preset!r}")
        if self.preset == "planewave":
            _check_mode(self.mode, self.n_modes)
        if self.t_end <= 0 or self.dt <= 0 or self.record_dt <= 0:
            raise ValueError("t_end, dt and record_dt must be positive")
        _check_phase(self.n_modes, self.dt)
        # a quotient too large for a float is inf, which the bound refuses too
        if max(self.t_end / self.dt, self.record_dt / self.dt) > MAX_STEPS:
            raise ValueError("the step counts t_end / dt and record_dt / dt must be "
                             f"at most {MAX_STEPS}")
        # the finite-difference legs' step, 0 for a tiny fd_delta
        step = self.fd_delta / self.fd_substeps
        if step <= 0:
            raise ValueError("fd_delta / fd_substeps must be positive, got "
                             f"{self.fd_delta!r} / {self.fd_substeps} = {step!r}")
        _check_phase(self.n_modes, step, "fd_delta / fd_substeps")

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config keys: {sorted(extra)}")
        return cls(**data)

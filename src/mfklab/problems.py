"""Problem definitions: coefficients, nonlinearities, initial densities, presets.

A ProblemSpec fixes one instance of the coupled system

    dY = Phi dW + [b0 + b(t, Y, u(t, Y))] dt,   Y_0 ~ u0,
    d/dt u = L* u - div(b(t, x, u) u) + Lambda(t, x, u) u,

through callables plus declared constants: uniform bounds M_b, M_Lambda and
Lipschitz-in-z constants L_b, L_Lambda.  Constants are trusted but can be
sample-verified with check_constants.  Nonlinearities are clamped to
[-z_max, z_max] in z so the uniform bounds hold by construction; z_max is a
ceiling the solution never reaches in the validated regimes, so the clamp is
inactive on the solution path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernel import ndtr

# every preset reads the shared parameters and its own ones below, no other
SHARED_PARAMS = ("nu", "T", "u0_mean", "u0_var")
PRESET_PARAMS = {"heat": (), "exponential_growth": ("lam",), "burgers": ("z_max",),
                 "logistic_fkpp": ("lam", "z_max")}
PRESET_NAMES = tuple(PRESET_PARAMS)


@dataclass(frozen=True)
class GaussianDensity:
    """One-dimensional Gaussian initial density."""

    mean: float = 0.0
    var: float = 0.04

    def __post_init__(self):
        if self.var <= 0:
            raise ValueError("variance must be positive")

    @property
    def std(self):
        return math.sqrt(self.var)

    @property
    def max_value(self):
        return 1.0 / math.sqrt(2.0 * math.pi * self.var)

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.std
        return np.exp(-0.5 * z * z) / (self.std * math.sqrt(2.0 * math.pi))

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.mean) / self.std)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws, scaled and shifted in the array of standard normals: the
        bits of mean + std * rng.standard_normal(n), as * and + commute."""
        y = rng.standard_normal(n)
        y *= self.std
        y += self.mean
        return y


@dataclass(frozen=True)
class ProblemSpec:
    """One MFKE / semilinear PDE instance with its declared constants."""

    name: str
    T: float
    Phi: float  # constant diffusion coefficient Phi = sqrt(nu)
    b: Callable  # b(t, x, z) -> drift, vectorized over x, z
    Lambda: Callable  # Lambda(t, x, z) -> growth rate, vectorized
    u0: GaussianDensity
    M_b: float
    M_Lambda: float
    L_b: float
    L_Lambda: float
    z_max: float
    b0: float = 0.0  # constant base drift


def _clamp(z, z_max):
    return np.clip(z, -z_max, z_max)


def _default_z_max(nu: float, T: float, u0) -> float:
    # Gaussian-domination ceiling 2 ||u0||_inf C_u for the constant-nu kernel
    from .kernel import KernelModel

    C_u = KernelModel(nu, T=T).C_u
    return 2.0 * u0.max_value * C_u


def preset(name: str, **params) -> ProblemSpec:
    """Build a preset problem.

    Common parameters: nu (diffusion, default 1.0), T (horizon, default 1.0),
    u0_mean, u0_var (Gaussian initial density, defaults 0 and 0.04).
    exponential_growth and logistic_fkpp take lam (default 0.5); burgers and
    logistic_fkpp accept a z_max override (PRESET_PARAMS).  A parameter the
    preset does not read raises ValueError.
    """
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    unread = sorted(set(params) - {*SHARED_PARAMS, *PRESET_PARAMS[name]})
    if unread:
        raise ValueError(f"preset {name!r} does not read {', '.join(unread)}")
    nu = float(params.get("nu", 1.0))
    T = float(params.get("T", 1.0))
    if nu <= 0 or T <= 0:
        raise ValueError("nu and T must be positive")
    u0 = GaussianDensity(float(params.get("u0_mean", 0.0)), float(params.get("u0_var", 0.04)))
    phi = math.sqrt(nu)
    # a read-only zero view: no array is made per call, and callers only read it
    zero = lambda t, x, z: np.broadcast_to(0.0, np.shape(z))

    if name == "heat":
        return ProblemSpec(name, T, phi, zero, zero, u0,
                           M_b=0.0, M_Lambda=0.0, L_b=0.0, L_Lambda=0.0,
                           z_max=_default_z_max(nu, T, u0))

    if name == "exponential_growth":
        lam = float(params.get("lam", 0.5))
        growth = lambda t, x, z: np.full_like(np.asarray(z, dtype=float), lam)
        return ProblemSpec(name, T, phi, zero, growth, u0,
                           M_b=0.0, M_Lambda=abs(lam), L_b=0.0, L_Lambda=0.0,
                           z_max=_default_z_max(nu, T, u0))

    if name == "burgers":
        z_max = float(params.get("z_max", _default_z_max(nu, T, u0)))

        def drift(t, x, z):
            out = _clamp(np.asarray(z, dtype=float), z_max)  # the one temporary
            out *= 0.5
            return out

        return ProblemSpec(name, T, phi, drift, zero, u0,
                           M_b=0.5 * z_max, M_Lambda=0.0, L_b=0.5, L_Lambda=0.0,
                           z_max=z_max)

    # logistic_fkpp: Fisher-KPP-type growth, nonlinear in z
    lam = float(params.get("lam", 0.5))
    z_max = float(params.get("z_max", _default_z_max(nu, T, u0)))
    growth = lambda t, x, z: lam * (1.0 - _clamp(np.asarray(z, dtype=float), z_max))
    return ProblemSpec(name, T, phi, zero, growth, u0,
                       M_b=0.0, M_Lambda=abs(lam) * (1.0 + z_max), L_b=0.0,
                       L_Lambda=abs(lam), z_max=z_max)


@dataclass(frozen=True)
class SmoothTestFunction:
    """Smooth test function with analytic first and second derivatives."""

    name: str
    f: Callable
    df: Callable
    d2f: Callable

    def __call__(self, x):
        return self.f(x)


def smooth_test_functions() -> list[SmoothTestFunction]:
    """Five smooth, rapidly decaying test functions for weak-form checks."""
    e = lambda x: np.exp(-np.square(x))
    basket = [
        SmoothTestFunction("gauss", lambda x: e(x), lambda x: -2 * x * e(x),
                     lambda x: (4 * x**2 - 2) * e(x)),
        SmoothTestFunction("x_gauss", lambda x: x * e(x), lambda x: (1 - 2 * x**2) * e(x),
                     lambda x: (4 * x**3 - 6 * x) * e(x)),
        SmoothTestFunction("x2_gauss", lambda x: x**2 * e(x),
                     lambda x: (2 * x - 2 * x**3) * e(x),
                     lambda x: (2 - 10 * x**2 + 4 * x**4) * e(x)),
        SmoothTestFunction("shift_gauss", lambda x: np.exp(-np.square(x - 0.5)),
                     lambda x: -2 * (x - 0.5) * np.exp(-np.square(x - 0.5)),
                     lambda x: (4 * (x - 0.5) ** 2 - 2) * np.exp(-np.square(x - 0.5))),
        SmoothTestFunction("cos_gauss", lambda x: np.cos(x) * np.exp(-0.5 * x**2),
                     lambda x: (-np.sin(x) - x * np.cos(x)) * np.exp(-0.5 * x**2),
                     lambda x: ((x**2 - 2) * np.cos(x) + 2 * x * np.sin(x))
                     * np.exp(-0.5 * x**2)),
    ]
    return basket


def apply_generator(problem: ProblemSpec, phi, t: float, x, h_fd: float = 1e-5):
    """Generator L_t phi(x) = (a/2) phi''(x) + b0 phi'(x) at x, a point (giving a
    float) or an array of points (giving an array).

    phi is a SmoothTestFunction (analytic derivatives) or a plain callable, in which
    case a centered stencil of width h_fd supplies the derivatives.
    """
    a, b0 = problem.Phi**2, problem.b0
    if isinstance(phi, SmoothTestFunction):
        out = 0.5 * a * phi.d2f(x) + b0 * phi.df(x)
    else:
        lo, mid, hi = (np.asarray(phi(x + step), dtype=float) for step in (-h_fd, 0.0, h_fd))
        d2 = (hi - 2.0 * mid + lo) / h_fd**2
        d1 = (hi - lo) / (2.0 * h_fd)
        out = 0.5 * a * d2 + b0 * d1
    return float(out) if np.ndim(x) == 0 else out


def check_constants(problem: ProblemSpec, n_samples: int = 10_000, seed: int = 0) -> dict:
    """Sample-verify the declared bound and Lipschitz constants.

    Evaluates draws (x, z1, z2) over [-10, 10] x [-z_max, z_max]^2 at 64 times
    spread evenly over [0, T]; reports the worst |b|, |Lambda| and Lipschitz ratios.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = rng.uniform(-10.0, 10.0, n_samples)
    z1 = rng.uniform(-problem.z_max, problem.z_max, n_samples)
    z2 = rng.uniform(-problem.z_max, problem.z_max, n_samples)
    worst = {"M_b": 0.0, "M_Lambda": 0.0, "L_b": 0.0, "L_Lambda": 0.0}
    for ti in np.linspace(0.0, problem.T, 64):
        b1 = np.asarray(problem.b(ti, x, z1))
        b2 = np.asarray(problem.b(ti, x, z2))
        l1 = np.asarray(problem.Lambda(ti, x, z1))
        l2 = np.asarray(problem.Lambda(ti, x, z2))
        worst["M_b"] = max(worst["M_b"], float(np.abs(b1).max(initial=0.0)))
        worst["M_Lambda"] = max(worst["M_Lambda"], float(np.abs(l1).max(initial=0.0)))
        dz = np.abs(z1 - z2)
        ok = dz > 1e-12
        if ok.any():
            worst["L_b"] = max(worst["L_b"], float((np.abs(b1 - b2)[ok] / dz[ok]).max()))
            worst["L_Lambda"] = max(
                worst["L_Lambda"], float((np.abs(l1 - l2)[ok] / dz[ok]).max())
            )
    declared = {
        "M_b": problem.M_b,
        "M_Lambda": problem.M_Lambda,
        "L_b": problem.L_b,
        "L_Lambda": problem.L_Lambda,
    }
    tol = 1e-9
    violations = {k: worst[k] for k in worst if worst[k] > declared[k] + tol}
    return {"worst": worst, "declared": declared, "violations": violations}

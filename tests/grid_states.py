"""Deterministic smooth test states on the heis-grid backend."""

import numpy as np

from contactmono.fields import GaugeField, HeisGridBackend, SpinorField


def trig_spinor(backend: HeisGridBackend, rng: np.random.Generator, kmax: int = 2) -> SpinorField:
    """Random trigonometric-polynomial spinor in the z-independent sector.

    Pure plane waves exp(2 pi i (k x + l y)) are the honest trigonometric
    functions on the nilmanifold; z-carrying modes are theta-like and are
    generated separately by theta_state.
    """
    x, y, _ = backend.coords()
    shape = (backend.n,) * 3

    def field():
        out = np.zeros(shape, dtype=complex)
        for k in range(-kmax, kmax + 1):
            for l in range(-kmax, kmax + 1):
                c = rng.normal(scale=1.0 / (1 + k * k + l * l)) + 1j * rng.normal(
                    scale=1.0 / (1 + k * k + l * l)
                )
                out = out + c * np.exp(2j * np.pi * (k * x + l * y))
        return out

    return SpinorField(field(), field(), backend)


def constant_gauge(backend: HeisGridBackend, rng: np.random.Generator) -> GaugeField:
    shape = (backend.n,) * 3
    vals = rng.normal(scale=0.5, size=3)
    return GaugeField(
        np.full(shape, vals[0]), np.full(shape, vals[1]), np.full(shape, vals[2]), backend
    )


def theta_state(backend: HeisGridBackend, m: int = 1, sigma: float = 0.2, kmax: int = 5):
    """Deck-invariant smooth function with z-frequency m.

    f = exp(2 pi i m z) sum_n phi(y - n) exp(-4 pi i m n x) with a Gaussian
    bump phi; invariant under (x,y+1,z+2x) by the index shift n -> n+1.
    """
    x, y, z = backend.coords()
    out = np.zeros((backend.n,) * 3, dtype=complex)
    for n in range(-kmax, kmax + 1):
        out = out + np.exp(-((y - n - 0.5) ** 2) / (2 * sigma**2)) * np.exp(
            -4j * np.pi * m * n * x
        )
    return out * np.exp(2j * np.pi * m * z)

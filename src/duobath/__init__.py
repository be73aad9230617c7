"""duobath: numerical laboratory for a two-oscillator Langevin chain
driven by one damped (cold) and one undamped (formally infinite-temperature)
noise channel."""

from .model import (
    ModelParams,
    State4,
    Jet2,
    v1_eval,
    hamiltonian,
    drift_and_noise,
)

__version__ = "0.1.0"

"""Neural differential-equation solving with uncertainty bands.

Two-stage pipeline: a deterministic network minimizes the squared residual
of the equation with initial/boundary conditions enforced exactly by a
transform, then a probabilistic regressor (variational, conjugate
last-layer, or evidential) treats that solution as observed data and emits
a posterior predictive band that is itself condition-enforced.
"""

__version__ = "0.1.0"

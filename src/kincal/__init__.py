"""Active kinematic calibration of serial chains.

Modules:
    kinematics  twist exponentials, forward kinematics, observation Jacobian
    estimator   recursive least squares and gradient baselines
    direct      DIRECT / DIRECT-l bounded global minimization
    fov         circular-cone visibility predicate
    active      A-optimal next-configuration selection
    sim         ground-truth fixtures, noisy measurements, error metrics
    cli         experiment runner and summaries (import kincal.cli; not
                loaded by the package, so python -m kincal.cli runs it once)
"""

from . import active, direct, estimator, fov, kinematics, sim

__all__ = ["active", "direct", "estimator", "fov", "kinematics", "sim"]
__version__ = "0.1.0"

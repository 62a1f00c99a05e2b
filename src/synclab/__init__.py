"""synclab: simulation and certification laboratory for inertial Kuramoto oscillators."""

from .integrate import IntegrationError, TaylorJet, Trajectory, first_zero, integrate, taylor_jet
from .model import GalileanShift, PhaseState, SystemParams
from .observables import ClusterSpec, LockCertificate, lock_certificate, order_parameter
from .reconstruct import (
    ReconstructionResult,
    contraction_horizon,
    determinability_threshold,
    reconstruct_velocity,
)
from .tikhonov import BoundCheck, compare_trajectories

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "ClusterSpec",
    "GalileanShift",
    "IntegrationError",
    "LockCertificate",
    "PhaseState",
    "ReconstructionResult",
    "SystemParams",
    "TaylorJet",
    "Trajectory",
    "compare_trajectories",
    "contraction_horizon",
    "determinability_threshold",
    "first_zero",
    "integrate",
    "lock_certificate",
    "order_parameter",
    "reconstruct_velocity",
    "taylor_jet",
    "__version__",
]

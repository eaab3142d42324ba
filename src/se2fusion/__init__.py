"""Pose-graph fusion of absolute GNSS fixes with relative vehicle
odometry on SE(2)."""

from .builders import BuilderConfig, Strategy, build, \
    full_rate_trajectory, vehicle_trajectory
from .dataset import Dataset, ExperimentConfig, TruthTrack, export_results, \
    load_dataset, run_batch, run_experiment, write_dataset
from .errors import BadInformationError, DivisionByZeroMetricError, \
    EmptyInputError, GaugeUnderconstrainedError, InsufficientCoverageError, \
    MixedUtmZonesError, NeedTwoPosesError, NonMonotonicTimestampsError, \
    OutOfUtmDomainError, ParseError, SingularSystemError, \
    TooFewReadingsError, UnknownNodeError
from .gnss import GnssReading, RejectionResult, gnss_information, \
    latlon_to_utm, reject_outliers
from .graph import Edge, EdgeKind, Node, PoseGraph
from .graph import load as load_graph
from .graph import save as save_graph
from .metrics import MetricsReport, accuracy, compute_metrics, \
    improvements, match_pps, max_offset, precision
from .odometry import OdometryStream
from .se2 import Pose2, compose, edge_jacobians, edge_residual, exp_map, \
    inverse, log_map, retract, wrap_angle
from .solver import SolveReport, SolverConfig, Termination, optimize
from .synth import GnssErrorModel, OdoErrorModel, TrajectoryProfile, \
    generate_synthetic

__version__ = "0.1.0"

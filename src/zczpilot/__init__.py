"""Training sequence design for paired MIMO links with correlation-zone
constraints, channel estimation utilities, and sensing range budgeting."""

__version__ = "0.1.0"

from .analysis import (
    CorrelationReport,
    EmpiricalMse,
    MonteCarloSummary,
    correlation_report,
    empirical_mse,
    monte_carlo_design,
)
from .archive import (
    ArchiveError,
    PilotArchive,
    archive_payload,
    dump_archive,
    read_archive,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .covariance import (
    ChannelScenario,
    build_scenario,
    exponential_covariance,
    reciprocal_scenario,
)
from .designer import (
    DesignConfig,
    DesignTrace,
    PilotPair,
    design_pilots,
    inner_cycle,
)
from .estimation import channel_mse_lemma
from .timing import (
    SensingFeasibility,
    TimingScenario,
    delay_symbols,
    is_sensing_feasible,
    max_object_range,
)

__all__ = [
    "__version__",
    "ArchiveError",
    "ChannelScenario",
    "ConfigError",
    "CorrelationReport",
    "DesignConfig",
    "DesignTrace",
    "EmpiricalMse",
    "MonteCarloSummary",
    "PilotArchive",
    "PilotPair",
    "RunConfig",
    "SensingFeasibility",
    "TimingScenario",
    "archive_payload",
    "build_scenario",
    "channel_mse_lemma",
    "correlation_report",
    "delay_symbols",
    "design_pilots",
    "dump_archive",
    "empirical_mse",
    "exponential_covariance",
    "inner_cycle",
    "is_sensing_feasible",
    "load_config",
    "max_object_range",
    "monte_carlo_design",
    "parse_config",
    "read_archive",
    "reciprocal_scenario",
]

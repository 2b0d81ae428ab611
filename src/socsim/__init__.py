"""socsim: deterministic transaction-level simulation of a multicore SoC
with end-to-end owner-id propagation, per-pair contention accounting and
programmable contention quotas."""

from .arbiter import Arbiter, FIXED_PRIORITY, QUOTA_AWARE, ROUND_ROBIN
from .config import Config, L2Spec, PortSpec, WorkloadSpec, load_config, parse_config
from .errors import ConfigError, SimulationError
from .kernel import Simulator
from .monitor import (ContentionMatrix, ContentionMonitor, QuotaConfig,
                      MODE_HW_STALL, MODE_INTERRUPT,
                      ACTION_LOG_ONLY, ACTION_THROTTLE)
from .report import build_report, write_outputs
from .system import System, build
from .transaction import READ, WRITE, Transaction
from .verify import run_checks
from .workload import (SyntheticProfile, SyntheticStream, TraceRecord,
                       TraceStream, emit_trace, lint_trace, parse_trace)

__version__ = "0.1.0"

__all__ = [
    "Arbiter", "ROUND_ROBIN", "FIXED_PRIORITY", "QUOTA_AWARE",
    "Config", "L2Spec", "PortSpec", "WorkloadSpec", "load_config",
    "parse_config", "ConfigError", "SimulationError", "Simulator",
    "ContentionMatrix", "ContentionMonitor", "QuotaConfig",
    "MODE_HW_STALL", "MODE_INTERRUPT", "ACTION_LOG_ONLY", "ACTION_THROTTLE",
    "build_report", "write_outputs", "System", "build",
    "READ", "WRITE", "Transaction", "run_checks",
    "SyntheticProfile", "SyntheticStream", "TraceRecord", "TraceStream",
    "emit_trace", "lint_trace", "parse_trace",
    "__version__",
]

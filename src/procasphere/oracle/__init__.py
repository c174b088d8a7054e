"""High-precision reference routes and frozen golden values."""

from .goldens import (
    GOLDEN_DIGITS,
    check_goldens,
    generate_goldens,
    golden_path,
    load_goldens,
    write_goldens,
)
from .highprec import (
    OracleError,
    mp_e,
    mp_family,
    mp_s,
    oracle_dlog_delta,
    oracle_l_term,
    oracle_log_delta,
)

__all__ = [
    "OracleError",
    "mp_s",
    "mp_e",
    "mp_family",
    "oracle_log_delta",
    "oracle_dlog_delta",
    "oracle_l_term",
    "GOLDEN_DIGITS",
    "golden_path",
    "generate_goldens",
    "write_goldens",
    "load_goldens",
    "check_goldens",
]

"""Structured parsing and comparison of CI build logs."""

from .core import (
    ErrorTag,
    LogAttributes,
    NONE_DETECTED,
    analyze,
    clean_log,
    compare,
    extract_error_tags,
    extract_status,
)

__all__ = [
    "ErrorTag",
    "LogAttributes",
    "NONE_DETECTED",
    "analyze",
    "clean_log",
    "compare",
    "extract_error_tags",
    "extract_status",
]

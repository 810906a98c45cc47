"""Self-rewarding trajectory scoring and tabular policy-flow checks."""

__version__ = "0.1.0"

"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat
and the categories stable.
"""


class GroupruneError(Exception):
    """Base class for all errors raised by this package."""


class ModelParseError(GroupruneError):
    """Model descriptor is malformed (bad JSON, missing field, bad kind)."""


class ConfigError(GroupruneError, ValueError):
    """A run setting is unusable: an unknown dataset, strategy or mode, a
    config file field of the wrong name, type or range, or a prune ratio
    outside [0, 1). Also a ValueError, which these checks raised before
    the class existed."""


class ValidationError(GroupruneError):
    """A NetworkIR violates a structural invariant."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ShapeError(GroupruneError):
    """Runtime tensor shape does not match a component's declaration."""


class GroupingError(GroupruneError):
    """Index-transform propagation found inconsistent channel arithmetic."""


class PruneError(GroupruneError):
    """A prune plan cannot be applied to the given IR."""


class TrainingDiverged(GroupruneError):
    """Loss became non-finite during training; carries the trace so far."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace

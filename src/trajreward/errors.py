"""Exception types shared across the package."""


class TrajRewardError(Exception):
    """Base class for every error raised by this package."""


class InputError(TrajRewardError, ValueError):
    """An input record the package cannot use; the CLI exits 2."""


class ScorerError(TrajRewardError):
    """A log-probability source failed or broke its contract; the CLI exits 3."""


class EmptyResponse(InputError):
    """Response text was empty or whitespace-only."""


class NoAnswerFound(InputError):
    """The final-answer pattern never matched and fallback was disabled."""


class EmptyAnswer(InputError):
    """A candidate answer canonicalized to the empty string."""


class CacheMiss(ScorerError):
    """A score request was not present in the file cache."""


class ServiceUnavailable(ScorerError):
    """The HTTP scoring service failed after the configured retries."""


class MalformedResponse(ScorerError):
    """A scorer returned a response that violates the score contract."""


class SingleAnswerBatch(TrajRewardError):
    """Normalized curves need at least two distinct answers."""


class EmptyGroup(TrajRewardError):
    """A group reward was requested for zero trajectories."""


class MissingMatrix(TrajRewardError):
    """Reward assembly requires a distance matrix for every trajectory."""


class InstanceInvalid(TrajRewardError):
    """A convergence instance violates its preconditions."""


class NonConvergence(TrajRewardError):
    """A simulation hit its time horizon before reaching its target."""

"""Exception types raised across the package.

Everything user-facing derives from GazecastError so callers can catch one
base type; the CLI maps these onto exit codes.
"""


class GazecastError(Exception):
    """Base class for all errors raised by gazecast."""


class ShapeMismatchError(GazecastError):
    """Operands have incompatible shapes; message names the offending dims."""


class DomainError(GazecastError):
    """Input lies outside an operation's mathematical domain (zero-norm
    vector, coincident points, log of a non-positive value, ...)."""


class ModelOutputError(DomainError):
    """A model emitted an output with no meaning, such as a gaze direction
    of zero or non-finite norm. No input is at fault, so the CLI exits 2 for
    it, as for a diverged training run."""


class TapeError(GazecastError):
    """Misuse of the autodiff tape: non-scalar loss, or a loss that is not
    on the calling thread's tape (already replayed, built under no_grad or
    on another thread)."""


class GradError(GazecastError):
    """Optimizer asked to step a parameter with no populated gradient."""


class ConfigError(GazecastError):
    """Invalid or contradictory run configuration."""


class CheckpointError(GazecastError):
    """Corrupt checkpoint file or parameter name/shape mismatch on load."""


class DatasetError(GazecastError):
    """Corrupt dataset file, manifest inconsistency, or an infeasible
    scene specification."""

"""Exception hierarchy shared across the package."""


class SdeLabError(Exception):
    """Base class for all sdelab errors."""


class PathDomainError(SdeLabError, ValueError):
    """Query time outside a path's domain."""


class NoiseSpecError(SdeLabError, ValueError):
    """Inconsistent martingale-measure specification (bad intensity, missing sampler...)."""


class ModelError(SdeLabError, RuntimeError):
    """Coefficient evaluation failed during a solve; carries (t, replication) context."""

    def __init__(self, message, t=None, replication=None):
        ctx = []
        if t is not None:
            ctx.append(f"t={t:.6g}")
        if replication is not None:
            ctx.append(f"replication={replication}")
        if ctx:
            message = f"{message} [{', '.join(ctx)}]"
        super().__init__(message)
        self.t = t
        self.replication = replication


class ExplosionError(ModelError):
    """The Euler state became infinite or NaN."""


class EnsembleError(SdeLabError, ValueError):
    """Ensemble construction rejected (assumption inequality or shape invariants violated)."""


class ConfigError(SdeLabError, ValueError):
    """Experiment configuration rejected.  Collects *all* problems, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))

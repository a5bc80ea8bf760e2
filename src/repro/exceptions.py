"""Exception hierarchy shared by all repro subpackages."""


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class PrefixError(ReproError):
    """An IPv4 prefix could not be parsed or manipulated."""


class ASPathError(ReproError):
    """An AS path is malformed or an operation on it is invalid."""


class PolicyError(ReproError):
    """A routing-policy definition or application is invalid."""


class TopologyError(ReproError):
    """The annotated AS graph is inconsistent or an operation is invalid."""


class SimulationError(ReproError):
    """The route-propagation simulation reached an invalid state."""


class DataFormatError(ReproError):
    """An on-disk data format (MRT, show-ip-bgp, RPSL) is malformed."""


class InferenceError(ReproError):
    """A policy- or relationship-inference step received unusable input."""


class ExperimentError(ReproError):
    """An experiment was configured or executed incorrectly."""


class StorageError(ReproError):
    """A stage artifact could not be packed, unpacked or round-tripped."""

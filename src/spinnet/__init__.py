"""spinnet: disordered dipolar spin-network simulation toolkit."""

__version__ = "0.1.0"


class ConfigError(ValueError):
    """A config, a command-line value or an input file that a command
    cannot use; ``spinnet`` exits 2 on it."""

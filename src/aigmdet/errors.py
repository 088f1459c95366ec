"""The package's failures, one class for each non-zero exit code that
cli.main decides: InputError 2 (as an OSError), AnalysisError 3 and
DivergedLoss 4."""

import functools


class InputError(Exception):
    """An input file, checkpoint, manifest or setting that cannot be used."""


class AnalysisError(Exception):
    """Audio too short to analyse, or with no beat grid."""


class DivergedLoss(Exception):
    """A training or validation loss that is not finite."""


def names_file(fn):
    """Decorator for a function of a file path: an InputError or
    AnalysisError that it raises is raised again, of the same class, as
    `<path>: <message>`, unless the message quotes the path as load_wav's
    do: at the end (an OSError's text) or at the start (a NUL byte)."""
    @functools.wraps(fn)
    def named(path, *args, **kwargs):
        try:
            return fn(path, *args, **kwargs)
        except (InputError, AnalysisError) as exc:
            quoted = repr(str(path))
            if str(exc).endswith(f": {quoted}") or str(exc).startswith(f"{quoted}: "):
                raise
            raise type(exc)(f"{path}: {exc}") from None
    return named

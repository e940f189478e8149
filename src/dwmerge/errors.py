"""Exception hierarchy shared by all dwmerge modules."""

from __future__ import annotations


class DwMergeError(Exception):
    """Base class for all dwmerge failures."""


class LoadError(DwMergeError):
    """A warehouse directory, descriptor, or table could not be ingested.

    Carries file/line coordinates whenever they are known so that CLI
    output can point at the offending spot.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)


class UserMapError(DwMergeError):
    """A user correspondence file entry is malformed or references unknown names."""


class WriteError(DwMergeError):
    """An output warehouse, report or manifest could not be written."""


class MergeError(DwMergeError):
    """A merge step cannot proceed (crossing matches, chain blow-up, bad inputs)."""


class UnmergeableError(MergeError):
    """The two stars share no dimensions with matched root parameters."""


class ConflictError(MergeError):
    """A value conflict was hit while the conflict policy is set to 'error'."""


class InternalInvariantError(DwMergeError):
    """A count law or structural invariant the tool guarantees did not hold."""

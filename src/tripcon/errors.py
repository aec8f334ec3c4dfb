"""Exception types shared across the package."""


class TripconError(Exception):
    """Base class for all tripcon errors."""


class NonBinaryError(TripconError):
    """An internal node has a number of children different from two."""


class DuplicateLabelError(TripconError):
    """The same leaf label appears more than once."""


class EmptyTreeError(TripconError):
    """No tree at all was supplied."""


class NewickSyntaxError(TripconError):
    """Malformed Newick input; ``position`` is the 0-based character offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TaxonMismatchError(TripconError):
    """Two trees that must share a taxon set do not."""


class EmptySubsetError(TripconError):
    """A leaf subset that must be non-empty is empty."""


class UnorderedInputError(TripconError):
    """A leaf sequence that must follow the tree's post-order does not."""

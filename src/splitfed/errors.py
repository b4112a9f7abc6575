"""Exception types shared across the package."""


class SplitFedError(Exception):
    """Base class for every error raised by this package."""


class InvalidParam(SplitFedError):
    """A parameter is outside its valid range."""


class DivisibilityError(SplitFedError):
    """Dataset size does not divide evenly across clients in strict mode."""


class CutOutOfRange(SplitFedError):
    """Cut index does not name a valid client/server boundary."""


class ShapeMismatch(SplitFedError):
    """An input or label tensor has the wrong width for the network."""


class LengthMismatch(SplitFedError):
    """Flat parameter vectors differ in length."""


class Diverged(SplitFedError):
    """Training reached a non-finite loss on records it trained on."""


class ScenarioError(SplitFedError):
    """A scenario file or built-in scenario name could not be parsed."""

"""Exception types shared across the package."""


class CbselError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CbselError):
    """A tunable is out of range or a config key is unknown."""


class ParseError(CbselError):
    """A CSV cell failed to parse. Carries the 1-based row and column."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)


class DimensionMismatch(CbselError):
    pass


class NonFiniteValue(CbselError):
    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.row = row
        self.column = column
        super().__init__(message)


class ZeroVector(CbselError):
    def __init__(self, what):
        self.row_id = what if isinstance(what, int) else None
        if isinstance(what, int):
            what = f"vector with id {what} has zero norm and cannot be normalized"
        super().__init__(what)


class UnknownId(CbselError):
    def __init__(self, row_id: int):
        self.row_id = row_id
        super().__init__(f"id {row_id} is not present in the store")


class UnlabeledId(CbselError):
    def __init__(self, row_id: int):
        self.row_id = row_id
        super().__init__(f"id {row_id} has no label")


class HiddenLabelAccess(CbselError):
    """Hidden labels were requested by a component that must not see them."""


class EmptyInput(CbselError):
    pass


class KTooLarge(CbselError):
    pass


class NotNormalized(CbselError):
    pass


class BudgetExceedsPool(CbselError):
    pass


class DegenerateClassifier(CbselError):
    pass


class NoClasses(CbselError):
    pass


class EmptyAllowedSet(CbselError):
    pass


class EmptyClass(CbselError):
    def __init__(self, class_id: int):
        self.class_id = class_id
        super().__init__(f"class {class_id} has no labeled or pseudo-labeled samples")


class LabelOutsideSessionSpace(CbselError):
    pass


class EmptyTestSet(CbselError):
    pass


class InfeasibleSeparation(CbselError):
    def __init__(self, attempted: int, reason: str = ""):
        self.attempted = attempted
        reason = reason or f"no placement after {attempted} repulsion rounds"
        super().__init__(f"could not place class centers at the requested separation: {reason}")


class PlanError(CbselError):
    """A session plan violates its structural invariants."""


class SessionFailure(CbselError):
    """A multi-session run aborted. Carries the 1-based session index."""

    def __init__(self, session: int, cause: Exception):
        self.session = session
        super().__init__(f"session {session} failed: {cause}")

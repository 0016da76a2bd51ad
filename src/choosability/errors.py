"""Shared error types and the node-expansion budget used by the search routines."""


class BudgetExceededError(RuntimeError):
    """A search exhausted its node-expansion budget.

    Carries progress statistics so callers can report how far the search got.
    """

    def __init__(self, message, **stats):
        super().__init__(message)
        self.stats = dict(stats)


class InternalCheckError(RuntimeError):
    """A result failed its own validity re-check; this signals a bug, never bad input."""


class Budget:
    """Deterministic node-expansion counter (wall-clock independent).

    ``limit`` is None for no limit or an int of 0 or more; 0 is a budget
    already spent, so a search that charges a node exceeds it.  A negative
    limit or any other value, ``True`` and ``1.0`` included, is a
    ValueError rather than a search that fails at its first node.
    """

    __slots__ = ("limit", "used")

    def __init__(self, limit=None):
        if limit is not None and (type(limit) is not int or limit < 0):
            raise ValueError("a node budget must be None or an int of 0 or more, not %r"
                             % (limit,))
        self.limit = limit
        self.used = 0

    @classmethod
    def ensure(cls, budget):
        """Pass through Budget instances, wrap integer limits (or None); ValueError otherwise."""
        return budget if isinstance(budget, cls) else cls(budget)

    def charge(self, amount=1, **stats):
        self.used += amount
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceededError(
                "node-expansion budget of %d exceeded" % self.limit,
                expanded=self.used, limit=self.limit, **stats)

"""Exception hierarchy.

Input errors (bad plans, bad graphs, bad corpora) map to CLI exit code 2;
operational errors (index misuse, configuration mismatches) map to exit
code 1.
"""

from __future__ import annotations


class QdagHashError(Exception):
    """Base class for every error raised by this package."""


class InputError(QdagHashError):
    """The caller supplied an ill-formed plan, graph, or corpus."""


class OperationalError(QdagHashError):
    """A valid request could not be served (index state, config drift)."""


# -- graph validation -------------------------------------------------------

class GraphError(InputError):
    pass


class CycleDetected(GraphError):
    def __init__(self, cycle: list[int]):
        self.cycle = list(cycle)
        super().__init__(f"graph contains a cycle: {' -> '.join(map(str, self.cycle))}")


class DanglingEdge(GraphError):
    def __init__(self, missing_id: int, edge: tuple[int, int]):
        self.missing_id = missing_id
        self.edge = edge
        super().__init__(f"edge {edge} references missing node id {missing_id}")


class DuplicateNodeId(GraphError):
    def __init__(self, node_id: int):
        self.node_id = node_id
        super().__init__(f"duplicate node id {node_id}")


class EmptyGraph(GraphError):
    def __init__(self) -> None:
        super().__init__("graph has no nodes")


# -- plan parsing ------------------------------------------------------------

class ParseError(InputError):
    pass


class MalformedDocument(ParseError):
    pass


class SchemaViolation(ParseError):
    def __init__(self, field: str, detail: str = ""):
        self.field = field
        msg = f"schema violation on field '{field}'"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class IndentError(ParseError):
    def __init__(self, line_no: int, detail: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {detail}")


class EmptyPlan(ParseError):
    def __init__(self) -> None:
        super().__init__("plan text contains no operator lines")


class UnresolvedReference(InputError):
    def __init__(self, node_id: int, detail: str):
        self.node_id = node_id
        super().__init__(f"reuse node {node_id}: {detail}")


class ReferenceCycle(InputError):
    def __init__(self, chain: list[int]):
        self.chain = list(chain)
        super().__init__(
            f"reuse references form a cycle: {' -> '.join(map(str, self.chain))}"
        )


class ExpansionTooLarge(InputError):
    def __init__(self, input_nodes: int, budget: int):
        self.input_nodes = input_nodes
        self.budget = budget
        super().__init__(
            f"reuse expansion of a {input_nodes}-node plan would exceed {budget} nodes"
        )


# -- corpus loading ----------------------------------------------------------

class CorpusError(InputError):
    pass


class CorpusLoadError(CorpusError):
    def __init__(self, failures: list[tuple[str, Exception]] | str):
        if isinstance(failures, str):
            self.failures: list[tuple[str, Exception]] = []
            super().__init__(failures)
        else:
            self.failures = list(failures)
            lines = [f"{name}: {err}" for name, err in self.failures]
            super().__init__("failed to load corpus:\n  " + "\n  ".join(lines))


class DuplicatePlanId(CorpusError):
    def __init__(self, plan_id: str, files: list[str]):
        self.plan_id = plan_id
        super().__init__(f"plan_id '{plan_id}' appears in more than one file: {files}")


class CorpusTooSmall(CorpusError):
    def __init__(self, size: int, minimum: int):
        super().__init__(f"corpus of {size} document(s); at least {minimum} required")


class MissingRuntime(CorpusError):
    def __init__(self, plan_id: str):
        self.plan_id = plan_id
        super().__init__(f"document '{plan_id}' has no runtime_seconds label")


# -- value-level errors ------------------------------------------------------

class EmptyFact(InputError):
    def __init__(self, fact: str):
        super().__init__(f"fact normalizes to the empty string: {fact!r}")


class NegativeRuntime(InputError):
    def __init__(self, value: float):
        super().__init__(f"runtime_seconds must be >= 0, got {value}")


class NonFiniteRuntime(InputError):
    def __init__(self, value: float):
        super().__init__(f"runtime_seconds must be finite, got {value}")


# -- index -------------------------------------------------------------------

class EmptyIndex(OperationalError):
    def __init__(self) -> None:
        super().__init__("index contains no records")


class ConfigMismatch(OperationalError):
    def __init__(self, field: str, expected: object, got: object):
        self.field = field
        super().__init__(f"config mismatch on '{field}': index has {expected!r}, got {got!r}")


class IndexFormatError(OperationalError):
    """A corrupt index file.

    where names the place: "line 1" (the header), "record 7" (counted
    from 1) or a block such as "block 'runtime'".
    """

    def __init__(self, where: str, detail: str):
        self.where = where
        super().__init__(f"index file {where}: {detail}")

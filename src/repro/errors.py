"""Exception hierarchy for the blockchain relational database.

Every error raised by the library derives from :class:`ReproError` so
applications can catch a single base class.  The hierarchy mirrors the
subsystems: SQL parsing/execution, MVCC/serialization failures, contract
determinism violations, consensus faults, and node-level protocol errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# SQL engine
# ---------------------------------------------------------------------------

class SQLError(ReproError):
    """Base class for SQL lexing, parsing, planning and execution errors."""


class SQLSyntaxError(SQLError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, position: int = -1, line: int = -1):
        super().__init__(message)
        self.position = position
        self.line = line


class CatalogError(SQLError):
    """Unknown or duplicate table/column/index/schema/function."""


class ConstraintViolation(SQLError):
    """A NOT NULL, UNIQUE, PRIMARY KEY or CHECK constraint was violated."""

    def __init__(self, message: str, constraint: str = "", table: str = ""):
        super().__init__(message)
        self.constraint = constraint
        self.table = table


class TypeMismatchError(SQLError):
    """A value does not match the declared column type or an operator's
    operand types are incompatible."""


class ExecutionError(SQLError):
    """Generic runtime failure while executing a statement."""


# ---------------------------------------------------------------------------
# MVCC / transactions
# ---------------------------------------------------------------------------

class TransactionError(ReproError):
    """Base class for transaction lifecycle errors."""


class SerializationFailure(TransactionError):
    """The transaction must abort to preserve serializability.

    This is the equivalent of PostgreSQL's SQLSTATE 40001.  ``reason``
    identifies which rule fired (e.g. ``"pivot"``, ``"ww-conflict"``,
    ``"phantom-read"``, ``"stale-read"``, ``"block-aware-near"``).
    """

    def __init__(self, message: str, reason: str = ""):
        super().__init__(message)
        self.reason = reason


class TransactionAborted(TransactionError):
    """Operation attempted on a transaction that has already aborted."""


class TransactionNotActive(TransactionError):
    """Operation attempted on a transaction that is not active."""


class MissingIndexError(SerializationFailure):
    """A predicate read in the execute-order-in-parallel flow had no
    supporting index (paper section 4.3: nodes abort the transaction)."""

    def __init__(self, message: str):
        super().__init__(message, reason="missing-index")


class BlindUpdateError(TransactionError):
    """Blind updates (UPDATE/DELETE without WHERE) are rejected in the
    execute-order-in-parallel flow (paper section 3.4.3)."""


# ---------------------------------------------------------------------------
# Contracts
# ---------------------------------------------------------------------------

class ContractError(ReproError):
    """Base class for smart-contract errors."""


class DeterminismViolation(ContractError):
    """The procedure uses a construct that is banned because it could
    produce different results on different nodes (paper section 4.3)."""


class ContractNotFound(ContractError):
    """Invocation of a contract that is not deployed."""


class ContractAborted(ContractError):
    """The contract body raised an application-level abort (RAISE)."""


class DeploymentError(ContractError):
    """Deployment lifecycle violation (missing approvals, bad state)."""


# ---------------------------------------------------------------------------
# Crypto / identity
# ---------------------------------------------------------------------------

class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class InvalidSignature(CryptoError):
    """Signature verification failed."""


class UnknownIdentity(CryptoError):
    """No registered certificate for the given user or node."""


class AccessDenied(ReproError):
    """The authenticated user lacks the privilege for the operation."""


# ---------------------------------------------------------------------------
# Consensus / ordering
# ---------------------------------------------------------------------------

class ConsensusError(ReproError):
    """Base class for ordering-service errors."""


class NotLeaderError(ConsensusError):
    """Request sent to a node that is not the current leader."""


class QuorumNotReached(ConsensusError):
    """Not enough votes/acks to make progress."""


# ---------------------------------------------------------------------------
# Node / network protocol
# ---------------------------------------------------------------------------

class NodeError(ReproError):
    """Base class for peer-node protocol errors."""


class BlockValidationError(NodeError):
    """A received block failed hash-chain or signature validation."""


class DuplicateTransactionError(NodeError):
    """A transaction with the same unique identifier was already seen."""


class CheckpointMismatchError(NodeError):
    """A node's write-set hash diverged from the network's (section 3.3.4:
    evidence that the node is faulty or malicious)."""


class RecoveryError(NodeError):
    """Failure during the section 3.6 recovery procedure."""


class StuckNodeError(NodeError):
    """A live node stopped making progress: its block buffer holds blocks
    it cannot process (a delivery gap the sync layer could not heal, or a
    head block that fails verification) past a settle deadline."""

"""Span anchor, nothing else.  Block commit is one synchronous path
(node/block_processor.py); there is no background stage to wait for.

``benchmarks/e2e/spans.py`` resolves ``CommitScheduler.barrier`` by
dotted path and lists a target it cannot find under ``missing_spans``,
which tier-1 asserts empty.  Nothing in ``src/`` calls it; ROADMAP lists
it for the next ``benchmark`` PR to drop together with this module.
"""


class CommitScheduler:
    def barrier(self) -> None:
        """No-op: every block is fully applied when ``process_block``
        returns."""

"""Asynchronous client notifications (section 2(7)).

Clients submit transactions asynchronously and LISTEN on a channel for
their outcome — the paper reuses PostgreSQL's LISTEN/NOTIFY.  This hub is
the equivalent: named channels, subscriber callbacks, and a per-tx-id
convenience used by the client API's ``wait_for``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

CHANNEL_TX_STATUS = "tx_status"
CHANNEL_BLOCKS = "blocks"
CHANNEL_CHECKPOINTS = "checkpoints"

#: Events kept for late readers (``tx_status``); subscribers see every
#: event as it is published, whatever the history holds.
HISTORY_EVENTS = 256


@dataclass(frozen=True)
class Notification:
    """One event published on a channel."""

    channel: str
    payload: Dict[str, Any]


class NotificationHub:
    """LISTEN/NOTIFY-style pub-sub for one node."""

    def __init__(self):
        self._subscribers: Dict[str, List[Callable[[Notification], None]]] \
            = defaultdict(list)
        self.history: Deque[Notification] = deque(maxlen=HISTORY_EVENTS)

    def listen(self, channel: str,
               callback: Callable[[Notification], None]) -> Callable[[], None]:
        """Subscribe; returns an unlisten function."""
        self._subscribers[channel].append(callback)

        def _unlisten():
            try:
                self._subscribers[channel].remove(callback)
            except ValueError:
                pass
        return _unlisten

    def notify(self, channel: str, **payload: Any) -> None:
        event = Notification(channel=channel, payload=payload)
        self.history.append(event)
        for callback in list(self._subscribers.get(channel, ())):
            callback(event)

    # -- convenience -------------------------------------------------------

    def tx_status(self, tx_id: str) -> Optional[Dict[str, Any]]:
        """Most recent status event for ``tx_id`` still in the history
        (None if not yet seen, or seen more than ``HISTORY_EVENTS``
        events ago — the ledger is the durable record)."""
        for event in reversed(self.history):
            if event.channel == CHANNEL_TX_STATUS and \
                    event.payload.get("tx_id") == tx_id:
                return event.payload
        return None

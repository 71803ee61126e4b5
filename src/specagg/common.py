"""Shared vocabulary of the package: side identifiers and error types."""

from __future__ import annotations

import enum


class Side(enum.Enum):
    """One of the two peers in a dual-stream run."""

    DEVICE = "device"
    CLOUD = "cloud"

    @property
    def other(self) -> "Side":
        return Side.CLOUD if self is Side.DEVICE else Side.DEVICE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# side indices, as the scheduler and the simulator count them: 0 device, 1 cloud
SIDES = (Side.DEVICE, Side.CLOUD)


class ProtocolError(RuntimeError):
    """Step desync or malformed interaction between the two peers.

    Raised fail-fast: the engine never tries to resynchronise.
    """

"""Transmit layer: one :class:`Driver` per NIC, whatever API its rail speaks."""

from .base import Driver

__all__ = ["Driver"]

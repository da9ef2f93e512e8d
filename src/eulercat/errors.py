"""Shared exception types."""


class ScaleCapError(Exception):
    """A computation was refused because it exceeds the configured scale cap."""

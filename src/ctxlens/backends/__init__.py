"""Next-token distribution backends: mocks for tests, HTTP clients for real models.

The HTTP client names load ``backends.http`` (and with it ``http.client``, ``ssl`` and
``email``) the first time one of them is used, so a run on a mock never imports them.
"""

from .base import Backend, Tokenizer, prefix_distribution, prefix_distributions
from .cache import CachedBackend
from .mock import (
    ConstantBackend,
    DelayedBackend,
    FlakyBackend,
    MockTokenizer,
    PlantedDependencyBackend,
    PlantedLastTokenBackend,
    SwitchBackend,
    parse_mock_spec,
)

_HTTP_NAMES = ("BackendEndpoint", "HttpBackend", "OpenAICompatBackend", "complete_distribution")


def __getattr__(name: str):
    if name in _HTTP_NAMES:
        from . import http

        return getattr(http, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Backend",
    "Tokenizer",
    "prefix_distribution",
    "prefix_distributions",
    "CachedBackend",
    "BackendEndpoint",
    "HttpBackend",
    "OpenAICompatBackend",
    "complete_distribution",
    "ConstantBackend",
    "DelayedBackend",
    "FlakyBackend",
    "MockTokenizer",
    "PlantedDependencyBackend",
    "PlantedLastTokenBackend",
    "SwitchBackend",
    "parse_mock_spec",
]

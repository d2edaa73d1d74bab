"""Next-token distribution backends: mocks for tests, HTTP clients for real models."""

from .base import Backend, BackendRequest, Tokenizer, prefix_distribution
from .cache import CachedBackend
from .http import BackendEndpoint, HttpBackend, OpenAICompatBackend, complete_distribution
from .mock import (
    ConstantBackend,
    DelayedBackend,
    FlakyBackend,
    MockTokenizer,
    NgramBackend,
    PlantedDependencyBackend,
    PlantedLastTokenBackend,
    SwitchBackend,
    parse_mock_spec,
)

__all__ = [
    "Backend",
    "BackendRequest",
    "Tokenizer",
    "prefix_distribution",
    "CachedBackend",
    "BackendEndpoint",
    "HttpBackend",
    "OpenAICompatBackend",
    "complete_distribution",
    "ConstantBackend",
    "DelayedBackend",
    "FlakyBackend",
    "MockTokenizer",
    "NgramBackend",
    "PlantedDependencyBackend",
    "PlantedLastTokenBackend",
    "SwitchBackend",
    "parse_mock_spec",
]

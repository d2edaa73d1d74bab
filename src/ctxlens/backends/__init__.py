"""Next-token distribution backends: mocks for tests, HTTP clients for real models."""

from .base import Backend, Tokenizer, prefix_distribution
from .cache import CachedBackend
from .http import BackendEndpoint, HttpBackend, OpenAICompatBackend, complete_distribution
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

__all__ = [
    "Backend",
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
    "PlantedDependencyBackend",
    "PlantedLastTokenBackend",
    "SwitchBackend",
    "parse_mock_spec",
]

"""Network substrate: HTTPS archive server model, WAN links, retry policy."""

from repro.net.http import DownloadResult, HttpServer
from repro.net.retry import BackoffPolicy, CircuitBreaker
from repro.net.wan import WanLink

__all__ = [
    "HttpServer",
    "DownloadResult",
    "WanLink",
    "BackoffPolicy",
    "CircuitBreaker",
]

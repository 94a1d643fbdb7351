"""HTTP-layer error types."""

from __future__ import annotations


class HTTPError(Exception):
    """Base class for errors that map to an HTTP error response."""

    status = 500

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.message = message


class BadRequestError(HTTPError):
    """Malformed request line, headers, or encoding (400)."""

    status = 400


class RequestTooLargeError(HTTPError):
    """Request line, header block, or body exceeds configured limits (413)."""

    status = 413


class RequestTimeoutError(HTTPError):
    """The client stalled mid-request past the socket timeout (408)."""

    status = 408


class NotFoundError(HTTPError):
    """No handler or static file matches the request path (404)."""

    status = 404

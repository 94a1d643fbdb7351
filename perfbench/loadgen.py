"""Closed-loop TPC-W load generator over persistent keep-alive sockets.

Each emulated browser (EB) behaves like ``repro.tpcw.emulator``: it
requests a page, fetches up to four embedded images (revalidating
cached ones with ``If-None-Match``), carries the shopping-cart id from
one response into the next request, and records the web-interaction
response time (WIRT) from the first byte of the page request sent to
the last byte of the last image received.  Unlike the shipped
``BrowserFleet`` it keeps one keep-alive socket per EB (a socket per
request exhausts ephemeral ports at ~2000 req/s), keeps every WIRT
sample rather than running means, and thinks for zero seconds.

Every response is checked: pages must be 200 with a body ending in
``</html>``; images must be 200 with the application's exact bytes
length and ETag, or 304 when revalidated.
"""

from __future__ import annotations

import dataclasses
import functools
import socket
import time
from typing import Dict, List, Optional, Tuple

from repro.http.errors import NotFoundError
from repro.server.app import Application
from repro.tpcw.emulator import _IMG_RE, _SC_ID_RE, encode_params
from repro.tpcw.mix import BrowsingMix
from repro.util.rng import RandomStream

MAX_IMAGES = 4
SOCKET_TIMEOUT = 30.0
_RECV = 65536


class PageDeck:
    """Draws pages so that every phase holds each page at its weight.

    Independent weighted draws make the number of heavy pages in a
    time-bounded run binomial.  On ``ordering`` a best-sellers page
    charges ~3.9 s of emulated latency at a 0.46% share, so one more or
    one fewer of them in a 25 s window moves throughput by ~10%; on
    ``browsing`` the ~11% best-seller share alone moves it by ~7% (one
    sigma) from seed to seed.  Instead each page earns its share of
    credit per draw and the page with the most credit is drawn
    (largest-remainder apportionment), so after n draws every page
    count is within one of n x share.  :meth:`restart` starts every
    phase from the same credits, so how many of each page a phase holds
    depends only on how many interactions it runs; EB *i* starts
    ``i x STAGGER`` draws into the sequence so the EBs' rare pages do
    not coincide.  The seed decides the order within each block of
    draws (a shuffle) and every session parameter.
    """

    BLOCK = 8
    STAGGER = 100

    def __init__(self, weights: Dict[str, float], rng: RandomStream,
                 advance: int):
        total = float(sum(weights.values()))
        self._paths = sorted(weights)
        self._shares = [weights[path] / total for path in self._paths]
        self._rng = rng
        self._advance = advance
        self.restart()

    def restart(self) -> None:
        self._credit = [0.0] * len(self._paths)
        self._block: List[str] = []
        for _ in range(self._advance):
            self._draw()

    def _draw(self) -> str:
        credit = self._credit
        for index, share in enumerate(self._shares):
            credit[index] += share
        best = max(range(len(credit)), key=credit.__getitem__)
        credit[best] -= 1.0
        return self._paths[best]

    def next(self) -> str:
        if not self._block:
            self._block = [self._draw() for _ in range(self.BLOCK)]
            self._rng.shuffle(self._block)
        return self._block.pop()


class KeepAliveClient:
    """A minimal HTTP/1.1 client on one persistent socket."""

    def __init__(self, host: str, port: int):
        self._address = (host, port)
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buffer = b""

    def get(self, target: str, etag: str = "") -> Tuple[int, Dict[str, str], bytes]:
        if self._sock is None:
            self._sock = socket.create_connection(self._address,
                                                  timeout=SOCKET_TIMEOUT)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conditional = f"If-None-Match: {etag}\r\n" if etag else ""
        self._sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: localhost\r\n"
            f"Connection: keep-alive\r\n{conditional}\r\n".encode("latin-1")
        )
        status, headers, body = self._read_response()
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, headers, body

    def _recv(self) -> bytes:
        chunk = self._sock.recv(_RECV)
        if not chunk:
            raise ConnectionError("server closed the connection")
        return chunk

    def _read_response(self) -> Tuple[int, Dict[str, str], bytes]:
        buffer = self._buffer
        end = buffer.find(b"\r\n\r\n")
        while end < 0:
            buffer += self._recv()
            end = buffer.find(b"\r\n\r\n")
        lines = buffer[:end].decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body_end = end + 4 + int(headers.get("content-length", "0"))
        while len(buffer) < body_end:
            buffer += self._recv()
        self._buffer = buffer[body_end:]
        return status, headers, buffer[end + 4:body_end]


@dataclasses.dataclass
class Interaction:
    """One web interaction: a page plus its images."""

    path: str
    started: float
    wirt: float
    ok: bool
    #: Responses with status 200 or 304 (the server counts each one).
    ok_requests: int
    error: str = ""


@functools.lru_cache(maxsize=None)
def _expected(app: Application, path: str) -> Tuple[int, str]:
    """The exact length and ETag the application serves for ``path``."""
    try:
        return len(app.static_content(path)), app.static_etag(path)
    except NotFoundError:
        return -1, ""


class EmulatedBrowser:
    """One closed-loop EB session with think time 0."""

    def __init__(self, index: int, seed: int, weights: Dict[str, float],
                 customers: int, items: int, host: str, port: int,
                 app: Application):
        self.mix = BrowsingMix(RandomStream(seed, f"eb-{index}"),
                               customers=customers, items=items,
                               weights=weights)
        self.pages = PageDeck(weights, self.mix.rng, index * PageDeck.STAGGER)
        self.client = KeepAliveClient(host, port)
        #: The application whose static files the images must match.
        self.app = app
        self.etags: Dict[str, str] = {}

    def run_until(self, deadline: float, out: List[Interaction]) -> None:
        self.pages.restart()
        while time.perf_counter() < deadline:
            out.append(self.interact())

    def interact(self) -> Interaction:
        path = self.pages.next()
        target = path + encode_params(self.mix.params_for(path))
        started = time.perf_counter()
        ok_requests = 0
        error = ""
        try:
            status, _headers, body = self.client.get(target)
            ok_requests += status in (200, 304)
            if status != 200 or not body.rstrip().endswith(b"</html>"):
                error = f"{path}: status {status}, {len(body)} bytes"
            text = body.decode("utf-8", "replace")
            for image in _IMG_RE.findall(text)[:MAX_IMAGES]:
                cached = self.etags.get(image, "")
                status, headers, payload = self.client.get(image, cached)
                ok_requests += status in (200, 304)
                length, etag = _expected(self.app, image)
                if status == 304 and cached:
                    continue
                if (status == 200 and len(payload) == length
                        and headers.get("etag") == etag):
                    self.etags[image] = etag
                    continue
                error = error or f"{image}: status {status}, {len(payload)} bytes"
            match = _SC_ID_RE.search(text)
            if match:
                self.mix.note_cart(int(match.group(1)))
        except (OSError, ValueError, IndexError) as exc:
            error = f"{path}: {type(exc).__name__}: {exc}"
            self.client.close()
        return Interaction(path, started, time.perf_counter() - started,
                           not error, ok_requests, error)

    def close(self) -> None:
        self.client.close()

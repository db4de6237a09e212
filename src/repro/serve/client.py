"""Thin blocking client for the job server.

One request per connection: connect, send one op, read the reply
stream.  The client never busy-waits and never hangs forever — every
socket operation runs under a timeout, and a server that stops
answering surfaces as a :class:`~repro.errors.ServeError` instead of a
stuck process.

Endpoint discovery reads ``<root>/endpoint.json`` (written atomically by
the server on startup), so tests and CLI users only ever pass the root
directory; :func:`wait_for_endpoint` polls for it while a freshly
spawned server boots.
"""

from __future__ import annotations

import json
import os
import socket
import time

from repro.errors import JobRejected, ServeError
from repro.serve.protocol import recv_message, send_message


def wait_for_endpoint(root, timeout=10.0):
    """Poll for the server's endpoint file; returns the endpoint dict.
    The interval doubles from 1 ms up to 50 ms, so a client started with
    its server connects soon after the server is ready."""
    path = os.path.join(root, "endpoint.json")
    deadline = time.monotonic() + timeout
    interval = 0.001
    while True:
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError):
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"no server endpoint appeared at {path} within "
                    f"{timeout:.0f}s") from None
            time.sleep(interval)
            interval = min(2 * interval, 0.05)


class ServeClient:
    """Blocking client bound to one server root (or explicit endpoint)."""

    def __init__(self, root=None, socket_path=None, host=None, port=None,
                 timeout=600.0):
        if root is not None and socket_path is None and host is None:
            endpoint = wait_for_endpoint(root, timeout=min(timeout, 10.0))
            socket_path = endpoint.get("socket")
            host = endpoint.get("host")
            port = endpoint.get("port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout

    def _connect(self):
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(self.timeout)
                sock.connect(self.socket_path)
            else:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout)
            return sock
        except OSError as exc:
            raise ServeError(f"cannot reach job server: {exc}") from exc

    def _request(self, payload):
        """Send one op; returns the first reply message."""
        sock = self._connect()
        try:
            try:
                send_message(sock, payload)
            except OSError as exc:
                raise ServeError(
                    f"job server dropped the connection: {exc}") from exc
            reply = self._recv(sock)
            return reply, sock
        except BaseException:
            sock.close()
            raise

    def _recv(self, sock):
        try:
            message = recv_message(sock)
        except socket.timeout as exc:
            raise ServeError(
                f"job server gave no reply within {self.timeout:.0f}s"
            ) from exc
        except OSError as exc:
            # A reset from a dying/draining server is a structured error,
            # never a raw socket exception escaping to the caller.
            raise ServeError(
                f"job server dropped the connection: {exc}") from exc
        if message is None:
            raise ServeError("job server closed the connection mid-request")
        return message

    def submit(self, spec, deadline=None, fresh=False, on_event=None):
        """Submit a job and block until its terminal event.

        Returns the terminal message (``result`` / ``failed`` /
        ``cancelled`` / ``detached``).  Raises
        :class:`~repro.errors.JobRejected` on a structured rejection and
        :class:`~repro.errors.ServeError` on a protocol-level error;
        intermediate ``accepted`` / ``progress`` / ``retry`` messages go
        to ``on_event`` when given.
        """
        request = {"op": "submit", "spec": spec}
        if deadline is not None:
            request["deadline"] = deadline
        if fresh:
            request["fresh"] = True
        message, sock = self._request(request)
        try:
            while True:
                kind = message.get("type")
                if kind == "rejected":
                    raise JobRejected(message.get("error", "rejected"),
                                      queue_depth=message.get("queue_depth"),
                                      max_queue=message.get("max_queue"))
                if kind == "error":
                    raise ServeError(message.get("error", "server error"))
                if kind in ("result", "failed", "cancelled", "detached"):
                    return message
                if on_event is not None:
                    on_event(message)
                message = self._recv(sock)
        finally:
            sock.close()

    def result(self, spec, deadline=None, fresh=False, on_event=None):
        """:meth:`submit`, unwrapped: the result payload on success,
        :class:`~repro.errors.ServeError` on any non-``result`` outcome."""
        terminal = self.submit(spec, deadline=deadline, fresh=fresh,
                               on_event=on_event)
        if terminal["type"] != "result":
            raise ServeError(
                f"job ended {terminal['type']}: "
                f"{terminal.get('error') or terminal.get('reason') or ''}")
        return terminal["payload"]

    def _simple(self, payload):
        message, sock = self._request(payload)
        sock.close()
        if message.get("type") == "error":
            raise ServeError(message.get("error", "server error"))
        return message

    def status(self):
        return self._simple({"op": "status"})

    def cancel(self, job_id, reason=None):
        return self._simple({"op": "cancel", "job": job_id,
                             "reason": reason})

    def shutdown(self):
        """Ask the server to drain and exit (clean shutdown, status 0)."""
        return self._simple({"op": "shutdown"})

"""Atomic, checksummed, content-addressed checkpoint files.

Long-running jobs (multi-minute sweeps, multi-hour explorations) need two
properties from their on-disk progress records:

* **Atomicity** — a crash or SIGKILL in the middle of a write must leave
  either the previous checkpoint or the new one on disk, never a torn
  half-file.  Every write here goes to a temporary file in the same
  directory followed by :func:`os.replace`, which POSIX guarantees is
  atomic within a filesystem.
* **Integrity + identity** — a resuming job must be able to tell a good
  checkpoint from a truncated/bit-rotted one (SHA-256 over the body) and
  from a checkpoint of a *different* job that happens to share the path
  (a content-address ``key`` derived from the job's inputs).  Both checks
  fail loudly with :class:`~repro.errors.CheckpointError`; a checkpoint is
  never silently loaded on mismatch.

File format (version 1)::

    repro-checkpoint 1\\n
    <kind>\\n            e.g. "sweep" or "explore-v3"
    <codec>\\n           "json" or "pickle"
    <key>\\n             hex content-address of the producing job
    <sha256>\\n          hex digest of the body bytes
    <body bytes>

The body codec is the producer's choice: ``json`` for plain-value payloads
(sweep rows — human-inspectable, byte-stable), ``pickle`` for payloads
carrying Python object graphs (explorer states and transitions).  The
checksum is computed over the encoded body, so any codec-level difference
is also caught.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import pickle
import tempfile

from repro.errors import CheckpointError

_MAGIC = b"repro-checkpoint 1"

#: body codecs: encode to bytes / decode from bytes
_CODECS = {
    "json": (
        lambda body: json.dumps(body, sort_keys=True).encode("utf-8"),
        lambda data: json.loads(data.decode("utf-8")),
    ),
    "pickle": (
        lambda body: pickle.dumps(body, protocol=4),
        lambda data: pickle.loads(data),
    ),
}


def _fsync_directory(directory):
    """Best-effort fsync of a directory entry table.

    ``os.replace`` makes the rename atomic, but only an fsync of the
    *parent directory* makes it durable — without it a host crash (power
    loss, kernel panic) can forget the rename and resurrect the old file.
    Platforms where directories cannot be opened or fsynced (some network
    filesystems, non-POSIX hosts) degrade silently: the write is still
    atomic, just not crash-durable, which matches the previous behaviour.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(directory, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path, data):
    """Write ``data`` to ``path`` atomically and durably (temp file +
    fsync + :func:`os.replace` + parent-directory fsync).

    The temporary file lives in the target's directory so the final rename
    never crosses a filesystem boundary; on any failure before the rename
    the temp file is removed and the previous ``path`` content is intact.
    After the rename the parent directory is fsynced (best-effort) so a
    host crash cannot lose the rename itself.  Returns ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp.", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    _fsync_directory(directory)
    return path


def atomic_write_text(path, text):
    """:func:`atomic_write_bytes` for UTF-8 text; returns ``path``."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def content_key(payload):
    """Deterministic hex content-address of a job's identifying inputs.

    ``payload`` may be ``bytes``/``str`` (hashed directly — pass a
    ``json.dumps(..., sort_keys=True)`` rendering for plain-value
    identities) or any :mod:`marshal`-serializable structure (tuples,
    dicts, ints, floats, bytes — the explorer's snapshots).  Marshal
    version 2 is value-deterministic for these types (the same property
    the :class:`~repro.verif.encoding.StateCodec` relies on).
    """
    if isinstance(payload, str):
        data = payload.encode("utf-8")
    elif isinstance(payload, bytes):
        data = payload
    else:
        data = marshal.dumps(payload, 2)
    return hashlib.sha256(data).hexdigest()


def save_checkpoint(path, kind, key, body, codec="json"):
    """Atomically persist ``body`` as a checkpoint of kind ``kind``.

    ``key`` is the producing job's content-address (:func:`content_key`);
    a later :func:`load_checkpoint` with a different key refuses the file.
    Returns ``path``.
    """
    if codec not in _CODECS:
        raise ValueError(f"unknown checkpoint codec {codec!r}")
    encode, _decode = _CODECS[codec]
    data = encode(body)
    digest = hashlib.sha256(data).hexdigest()
    header = b"\n".join([
        _MAGIC,
        str(kind).encode("ascii"),
        codec.encode("ascii"),
        str(key).encode("ascii"),
        digest.encode("ascii"),
        b"",
    ])
    return atomic_write_bytes(path, header + data)


def load_checkpoint(path, kind, key, stale_kinds=()):
    """Load and verify a checkpoint; returns the body, or ``None`` when no
    file exists at ``path`` or the file is of a kind in ``stale_kinds``
    (an older format of the same job's checkpoints, which cannot resume:
    a fresh start, not an error).

    Raises :class:`~repro.errors.CheckpointError` on a bad magic header,
    unknown codec, checksum mismatch (truncation / corruption), body
    decode failure, wrong ``kind``, or a ``key`` that does not match —
    every way a file can be untrustworthy is a loud, distinct error.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        return None
    parts = raw.split(b"\n", 5)
    if len(parts) != 6 or parts[0] != _MAGIC:
        raise CheckpointError(f"{path}: not a repro checkpoint file")
    file_kind = parts[1].decode("ascii", "replace")
    codec = parts[2].decode("ascii", "replace")
    file_key = parts[3].decode("ascii", "replace")
    digest = parts[4].decode("ascii", "replace")
    data = parts[5]
    if codec not in _CODECS:
        raise CheckpointError(f"{path}: unknown checkpoint codec {codec!r}")
    if hashlib.sha256(data).hexdigest() != digest:
        raise CheckpointError(
            f"{path}: checksum mismatch (truncated or corrupted checkpoint)"
        )
    if file_kind in stale_kinds:
        return None
    if file_kind != str(kind):
        raise CheckpointError(
            f"{path}: checkpoint kind {file_kind!r} does not match "
            f"expected {kind!r}"
        )
    if file_key != str(key):
        raise CheckpointError(
            f"{path}: checkpoint was written by a different job "
            f"(key {file_key[:12]}… != expected {str(key)[:12]}…); "
            "refusing to resume from it"
        )
    _encode, decode = _CODECS[codec]
    try:
        return decode(data)
    except Exception as exc:
        raise CheckpointError(f"{path}: checkpoint body failed to decode: "
                              f"{exc}") from exc

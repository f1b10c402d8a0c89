"""Small shared helpers."""

from __future__ import annotations

import os
from contextlib import contextmanager


def as_integer(value) -> int:
    """An int, an integral float or an integer string as an int; anything
    else (4.7, True, "4.0", "x", nan, inf, [4]) raises ValueError."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            if isinstance(value, str) or int(value) == value:
                return int(value)
        except (ValueError, OverflowError):  # "x", nan, inf
            pass
    raise ValueError(f"{value!r} is not an integer")


@contextmanager
def atomic_open(path):
    """Binary handle on a temp file in the target directory.

    The temp file replaces path when the block exits normally and is
    removed when it raises, so readers never see a partial file. It is
    created with mode 0o666 so the umask sets the permissions, as open()
    does.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write to a temp file in the target directory, then promote."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_bytes(path, data: bytes) -> None:
    with atomic_open(path) as fh:
        fh.write(data)

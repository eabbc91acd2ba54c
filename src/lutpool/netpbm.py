"""Binary netpbm image files: P5 (grayscale) and P6 (RGB), 8-bit only."""

from __future__ import annotations

import os
import stat

import numpy as np


class PnmError(Exception):
    """Malformed or unsupported netpbm file."""


_MAX_TOKEN = 16   # longest header field; a dimension has at most 10 digits


def _read_token(fh) -> bytes:
    # skip whitespace and '#' comment lines between header fields
    tok = bytearray()
    while True:
        c = fh.read(1)
        if not c:
            raise PnmError("unexpected end of header")
        if c == b"#":
            while c not in (b"\n", b""):
                c = fh.read(1)
            continue
        if c.isspace():
            if tok:
                return bytes(tok)
            continue
        if len(tok) == _MAX_TOKEN:
            raise PnmError("header field too long")
        tok += c


def read_pnm(path) -> np.ndarray:
    """Load a P5 file as (H, W) uint8 or a P6 file as (H, W, 3) uint8."""
    with open(path, "rb") as fh:
        magic = fh.read(2)
        if magic not in (b"P5", b"P6"):
            raise PnmError(f"unsupported magic {magic!r} (want P5 or P6)")
        try:
            width = int(_read_token(fh))
            height = int(_read_token(fh))
            maxval = int(_read_token(fh))
        except ValueError as exc:
            raise PnmError("non-numeric header field") from exc
        if width <= 0 or height <= 0:
            raise PnmError(f"bad dimensions {width}x{height}")
        if maxval != 255:
            raise PnmError(f"only maxval 255 is supported, got {maxval}")
        channels = 3 if magic == b"P6" else 1
        need = width * height * channels
        # check the claim against a regular file before reading: the result
        # is allocated at whatever size the header asks for
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode) and st.st_size - fh.tell() < need:
            raise PnmError(f"payload holds {st.st_size - fh.tell()} bytes, header needs {need}")
        # read straight into the result: the payload is held once
        arr = np.empty(need, dtype=np.uint8)
        got = 0
        with memoryview(arr) as view:
            while got < need:
                chunk = fh.readinto(view[got:])
                if not chunk:
                    break
                got += chunk
        if got != need:
            raise PnmError(f"payload holds {got} bytes, header needs {need}")
    return arr.reshape((height, width) if channels == 1 else (height, width, 3))


def write_pnm(path, image) -> None:
    """Write (H, W) uint8 as P5 or (H, W, 3) uint8 as P6."""
    arr = np.asarray(image)
    if arr.dtype != np.uint8:
        raise PnmError(f"expected uint8 pixels, got {arr.dtype}")
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise PnmError(f"cannot write shape {arr.shape}")
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(np.ascontiguousarray(arr).data)     # the buffer itself, not a copy

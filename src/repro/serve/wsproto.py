"""Minimal RFC 6455 WebSocket framing (stdlib only).

Just enough of the protocol for the simulation service's
``GET /v1/ws`` endpoint: the opening handshake digest, unfragmented
text/binary/control frames, client-side masking, 16/64-bit extended
lengths, and clean close.  Compression, fragmentation and extensions
are deliberately out of scope -- a frame with FIN unset is rejected.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import os
import struct
from typing import Tuple

#: RFC 6455 §1.3 handshake GUID.
_WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

#: Opcodes (RFC 6455 §5.2).
OP_CONT = 0x0
OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

#: Upper bound on a single inbound frame payload (same 10 MiB cap as
#: the HTTP body limit; a model document comfortably fits).
MAX_FRAME = 10 * 1024 * 1024


class WsError(ValueError):
    """A protocol violation; the connection should be dropped."""


def accept_key(client_key: str) -> str:
    """The ``Sec-WebSocket-Accept`` value for a client's key."""
    digest = hashlib.sha1((client_key + _WS_GUID).encode("ascii")).digest()
    return base64.b64encode(digest).decode("ascii")


def encode_frame(payload: bytes, opcode: int = OP_TEXT, mask: bool = False) -> bytes:
    """One unfragmented frame.  Servers send unmasked (``mask=False``);
    clients must mask (``mask=True``, random key)."""
    header = bytearray([0x80 | (opcode & 0x0F)])
    mask_bit = 0x80 if mask else 0x00
    length = len(payload)
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack("!H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack("!Q", length)
    if not mask:
        return bytes(header) + payload
    key = os.urandom(4)
    header += key
    masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(header) + masked


def encode_text(text: str, mask: bool = False) -> bytes:
    return encode_frame(text.encode("utf-8"), OP_TEXT, mask=mask)


def encode_close(code: int = 1000, reason: str = "", mask: bool = False) -> bytes:
    payload = struct.pack("!H", code) + reason.encode("utf-8")
    return encode_frame(payload, OP_CLOSE, mask=mask)


async def read_frame(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    """Read one frame; returns ``(opcode, payload)``.

    Raises :class:`asyncio.IncompleteReadError` at EOF and
    :class:`WsError` on protocol violations (fragmentation, oversized
    payloads, reserved bits)."""
    head = await reader.readexactly(2)
    fin = head[0] & 0x80
    if head[0] & 0x70:
        raise WsError("reserved bits set (extensions are not supported)")
    opcode = head[0] & 0x0F
    if not fin:
        raise WsError("fragmented frames are not supported")
    masked = head[1] & 0x80
    length = head[1] & 0x7F
    if length == 126:
        (length,) = struct.unpack("!H", await reader.readexactly(2))
    elif length == 127:
        (length,) = struct.unpack("!Q", await reader.readexactly(8))
    if length > MAX_FRAME:
        raise WsError(f"frame of {length} bytes exceeds the {MAX_FRAME} cap")
    key = await reader.readexactly(4) if masked else None
    payload = await reader.readexactly(length) if length else b""
    if key is not None:
        payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return opcode, payload


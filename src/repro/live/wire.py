"""Length-prefixed wire protocol for the live transport tier.

Every frame on a live socket — node↔node data plane and node↔coordinator
control plane alike — is ``!IB`` (4-byte body length, 1-byte kind)
followed by the body: one value in a small tagged binary encoding that
covers exactly the types the round protocol ships (scalars, containers,
and the :mod:`repro.core.payload` value objects ``UID`` / ``IDPair`` /
``Message``).  The codec is hand-rolled rather than pickle so a live peer
can never smuggle arbitrary objects into a node, and rather than JSON so
``UID`` opacity survives the wire (the key travels as an integer field of
a ``UID`` value, not as inspectable structure).

Data-plane kinds (:data:`HELLO` … :data:`BYE`) mirror one model round:
advertise, propose-or-decline, accept-or-reject, bounded payload
exchange, goodbye.  The four small ones (``HELLO``, ``PROPOSE``,
``NOPROPOSE``, ``ACCEPT``) carry one :class:`RoundValue` — the round
number and one integer (the tag, 0, 0, ``ok``) — in a fixed-width
17-byte body: tag ``R`` then ``!qq``.  It is one more tag of the same
codec, so :func:`decode` stays the only decoder, and a body of any other
length is rejected.  ``PAYLOAD`` and every control-plane frame keep the
tagged encoding.  Control-plane kinds carry the barrier coordinator's
round synchronization and fault directives.

Data channels parse frames in a protocol callback
(:class:`repro.live.channels.EdgeChannel`); the control plane reads them
with :func:`read_frame` from a stream.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from repro.core.payload import IDPair, Message, UID

__all__ = [
    "WireError",
    "RoundValue",
    "encode",
    "decode",
    "frame_bytes",
    "read_frame",
    "kind_name",
    "MAX_FRAME",
    "IDENT",
    "HELLO",
    "PROPOSE",
    "NOPROPOSE",
    "ACCEPT",
    "PAYLOAD",
    "BYE",
    "ROUND_VALUE_KINDS",
    "WELCOME",
    "READY",
    "ROUND",
    "DONE",
    "CRASH",
    "REJOIN",
    "STOP",
]

# -- frame kinds ---------------------------------------------------------------

#: First frame on any dialed connection: who is calling.
IDENT = 1
#: Phase A: advertise this round's ``b``-bit tag to a neighbor.
HELLO = 2
#: Phase B: "I propose a connection to you this round."
PROPOSE = 3
#: Phase B: "I will not propose to you this round" (keeps phase B at
#: exactly one frame per direction per live edge, so phases self-delimit
#: over TCP's per-channel FIFO without extra barriers).
NOPROPOSE = 4
#: Phase C: accept (``ok=True``) or reject one incoming proposal.
ACCEPT = 5
#: Phase D: one budget-checked :class:`~repro.core.payload.Message`.
PAYLOAD = 6
#: Graceful end-of-run close of a data channel.
BYE = 7
#: Data frames whose body is one fixed-width :class:`RoundValue`.
ROUND_VALUE_KINDS = frozenset((HELLO, PROPOSE, NOPROPOSE, ACCEPT))

#: Coordinator → node: full peer table + initial adjacency.
WELCOME = 8
#: Node → coordinator: setup / crash / rejoin directive acknowledged.
READY = 9
#: Coordinator → node: start global round ``r`` (barrier release).
ROUND = 10
#: Node → coordinator: round report (tag, proposal, acceptance).
DONE = 11
#: Coordinator → node: close your data sockets now (crash fault).
CRASH = 12
#: Coordinator → node: come back up, re-dial your live neighbors.
REJOIN = 13
#: Coordinator → node: the run is over.
STOP = 14

_KIND_NAMES = {
    IDENT: "IDENT",
    HELLO: "HELLO",
    PROPOSE: "PROPOSE",
    NOPROPOSE: "NOPROPOSE",
    ACCEPT: "ACCEPT",
    PAYLOAD: "PAYLOAD",
    BYE: "BYE",
    WELCOME: "WELCOME",
    READY: "READY",
    ROUND: "ROUND",
    DONE: "DONE",
    CRASH: "CRASH",
    REJOIN: "REJOIN",
    STOP: "STOP",
}


def kind_name(kind: int) -> str:
    """Human-readable name of a frame kind, for error messages."""
    return _KIND_NAMES.get(kind, f"kind#{kind}")


class WireError(RuntimeError):
    """A frame could not be encoded or decoded."""


class RoundValue(NamedTuple):
    """Fixed-width body of the four small data frames: a round number and
    one integer (``HELLO``: the tag; ``ACCEPT``: ``ok`` as 0/1; 0 for
    ``PROPOSE``/``NOPROPOSE``)."""

    r: int
    value: int


#: Upper bound on a frame body; far above any budgeted payload, low
#: enough that a corrupt length prefix cannot trigger a giant read.
MAX_FRAME = 1 << 20

_HEADER = struct.Struct("!IB")
_ROUND_VALUE = struct.Struct("!qq")
_F64 = struct.Struct("!d")
_U32 = struct.Struct("!I")


# -- value codec ---------------------------------------------------------------

_T_NONE = b"Z"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"
_T_FLOAT = b"f"
_T_STR = b"s"
_T_BYTES = b"b"
_T_LIST = b"l"
_T_TUPLE = b"t"
_T_DICT = b"d"
_T_UID = b"U"
_T_IDPAIR = b"P"
_T_MESSAGE = b"M"
_T_ROUND = b"R"
_ROUND_SIZE = 1 + _ROUND_VALUE.size
_new_tuple = tuple.__new__


def _enc_int(value: int, out: bytearray) -> None:
    out += _T_INT
    raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
    if len(raw) > 255:
        raise WireError(f"integer too large for the wire ({len(raw)} bytes)")
    out.append(len(raw))
    out += raw


def _enc(obj, out: bytearray) -> None:
    if type(obj) is RoundValue:
        out += _T_ROUND
        try:
            out += _ROUND_VALUE.pack(obj.r, obj.value)
        except struct.error as exc:
            raise WireError(f"round value {tuple(obj)} does not fit !qq") from exc
    elif obj is None:
        out += _T_NONE
    elif obj is True:
        out += _T_TRUE
    elif obj is False:
        out += _T_FALSE
    elif isinstance(obj, (bool, np.bool_)):
        out += _T_TRUE if obj else _T_FALSE
    elif isinstance(obj, (int, np.integer)):
        _enc_int(int(obj), out)
    elif isinstance(obj, (float, np.floating)):
        out += _T_FLOAT
        out += _F64.pack(float(obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        out += _T_STR
        out += _U32.pack(len(raw))
        out += raw
    elif isinstance(obj, bytes):
        out += _T_BYTES
        out += _U32.pack(len(obj))
        out += obj
    elif isinstance(obj, list):
        out += _T_LIST
        out += _U32.pack(len(obj))
        for item in obj:
            _enc(item, out)
    elif isinstance(obj, tuple):
        out += _T_TUPLE
        out += _U32.pack(len(obj))
        for item in obj:
            _enc(item, out)
    elif isinstance(obj, dict):
        out += _T_DICT
        out += _U32.pack(len(obj))
        for key, value in obj.items():
            _enc(key, out)
            _enc(value, out)
    elif isinstance(obj, UID):
        out += _T_UID
        _enc_int(obj._key, out)
    elif isinstance(obj, IDPair):
        out += _T_IDPAIR
        _enc(obj.uid, out)
        _enc_int(int(obj.tag), out)
    elif isinstance(obj, Message):
        out += _T_MESSAGE
        _enc(tuple(obj.uids), out)
        _enc_int(int(obj.extra_bits), out)
        _enc(obj.data, out)
    else:
        raise WireError(f"cannot encode {type(obj).__name__} for the wire")


def encode(obj) -> bytes:
    """Serialize one value to the tagged binary encoding."""
    out = bytearray()
    _enc(obj, out)
    return bytes(out)


def _need(buf: bytes, pos: int, count: int) -> None:
    if pos + count > len(buf):
        raise WireError("truncated frame body")


def _dec_int(buf: bytes, pos: int) -> tuple[int, int]:
    tag = buf[pos : pos + 1]
    if tag != _T_INT:
        raise WireError(f"expected an integer, got tag {tag!r}")
    pos += 1
    _need(buf, pos, 1)
    length = buf[pos]
    pos += 1
    _need(buf, pos, length)
    value = int.from_bytes(buf[pos : pos + length], "big", signed=True)
    return value, pos + length


def _dec(buf: bytes, pos: int):
    _need(buf, pos, 1)
    tag = buf[pos : pos + 1]
    if tag == _T_ROUND:
        _need(buf, pos, _ROUND_SIZE)
        return (
            _new_tuple(RoundValue, _ROUND_VALUE.unpack_from(buf, pos + 1)),
            pos + _ROUND_SIZE,
        )
    if tag == _T_NONE:
        return None, pos + 1
    if tag == _T_TRUE:
        return True, pos + 1
    if tag == _T_FALSE:
        return False, pos + 1
    if tag == _T_INT:
        return _dec_int(buf, pos)
    pos += 1
    if tag == _T_FLOAT:
        _need(buf, pos, 8)
        return _F64.unpack_from(buf, pos)[0], pos + 8
    if tag in (_T_STR, _T_BYTES):
        _need(buf, pos, 4)
        length = _U32.unpack_from(buf, pos)[0]
        pos += 4
        _need(buf, pos, length)
        raw = buf[pos : pos + length]
        return (raw.decode("utf-8") if tag == _T_STR else bytes(raw)), pos + length
    if tag in (_T_LIST, _T_TUPLE):
        _need(buf, pos, 4)
        count = _U32.unpack_from(buf, pos)[0]
        pos += 4
        items = []
        for _ in range(count):
            item, pos = _dec(buf, pos)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), pos
    if tag == _T_DICT:
        _need(buf, pos, 4)
        count = _U32.unpack_from(buf, pos)[0]
        pos += 4
        out = {}
        for _ in range(count):
            key, pos = _dec(buf, pos)
            value, pos = _dec(buf, pos)
            out[key] = value
        return out, pos
    if tag == _T_UID:
        key, pos = _dec_int(buf, pos)
        return UID(key), pos
    if tag == _T_IDPAIR:
        uid, pos = _dec(buf, pos)
        tag_value, pos = _dec_int(buf, pos)
        if not isinstance(uid, UID):
            raise WireError("IDPair.uid must decode to a UID")
        return IDPair(uid=uid, tag=tag_value), pos
    if tag == _T_MESSAGE:
        uids, pos = _dec(buf, pos)
        extra_bits, pos = _dec_int(buf, pos)
        data, pos = _dec(buf, pos)
        if not isinstance(uids, tuple) or not all(isinstance(u, UID) for u in uids):
            raise WireError("Message.uids must decode to a tuple of UIDs")
        return Message(uids=uids, extra_bits=extra_bits, data=data), pos
    raise WireError(f"unknown wire tag {tag!r}")


def decode(buf: bytes | bytearray):
    """Deserialize one value; the buffer must hold exactly one value.

    Any malformed body raises :class:`WireError`, never another type.
    """
    if len(buf) == _ROUND_SIZE and buf[0] == _T_ROUND[0]:
        # The small data frames' body: skip the general walk.
        return _new_tuple(RoundValue, _ROUND_VALUE.unpack_from(buf, 1))
    try:
        obj, pos = _dec(buf, 0)
    except (ValueError, TypeError, RecursionError) as exc:
        # Bad UTF-8, an unhashable dict key, a model type rejecting its
        # fields, nesting deeper than the interpreter allows.
        raise WireError(f"malformed frame body: {exc}") from exc
    if pos != len(buf):
        raise WireError(f"{len(buf) - pos} trailing bytes after value")
    return obj


# -- frames --------------------------------------------------------------------


def frame_bytes(kind: int, obj=None) -> bytes:
    """One length-prefixed frame, ready to write."""
    body = encode(obj)
    if len(body) > MAX_FRAME:
        raise WireError(f"frame body of {len(body)} bytes exceeds {MAX_FRAME}")
    return _HEADER.pack(len(body), kind) + body


async def read_frame(reader) -> tuple[int, object]:
    """Read one frame; raises ``asyncio.IncompleteReadError`` on EOF."""
    header = await reader.readexactly(_HEADER.size)
    length, kind = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise WireError(f"incoming frame of {length} bytes exceeds {MAX_FRAME}")
    body = await reader.readexactly(length)
    return kind, decode(body)

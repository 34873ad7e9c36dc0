"""Marshal layer: communication buffers and wire encodings."""

from repro.marshal.buffer import MarshalBuffer
from repro.marshal.codec import TaggedStream, WireTag
from repro.marshal.errors import (
    BufferUnderflowError,
    DoorVectorError,
    MarshalError,
    WireTypeError,
)

__all__ = [
    "MarshalBuffer",
    "TaggedStream",
    "WireTag",
    "MarshalError",
    "WireTypeError",
    "BufferUnderflowError",
    "DoorVectorError",
]

"""Fixture: symmetric marshal/unmarshal pairs springlint must accept."""


class SimplePair:
    def marshal_rep(self, rep, buffer):
        buffer.put_door_id(rep.door)
        buffer.put_string(rep.name)

    def unmarshal_rep(self, buffer, binding):
        door = buffer.get_door_id()
        name = buffer.get_string()
        return door, name


class TransitAndIdAreOneKind:
    """put_door_transit on the wire is read back with get_door_id."""

    def marshal_rep(self, rep, buffer):
        buffer.put_door_transit(rep.door)

    def unmarshal_rep(self, buffer, binding):
        return buffer.get_door_id()


class PeekCountsAsRead:
    def marshal(self, obj, buffer):
        buffer.put_object_header("kind")
        buffer.put_bytes(obj.payload)

    def unmarshal(self, buffer, binding):
        kind = buffer.peek_object_header()
        buffer.get_object_header()
        return kind, buffer.get_bytes()


class LoopsAndBranchesAreFine:
    """Set comparison, not order proof: repetition and branching pass."""

    def marshal_rep(self, rep, buffer):
        buffer.put_sequence_header(len(rep.parts))
        for part in rep.parts:
            if part.is_door:
                buffer.put_bool(True)
                buffer.put_door_id(part.door)
            else:
                buffer.put_bool(False)
                buffer.put_string(part.text)

    def unmarshal_rep(self, buffer, binding):
        count = buffer.get_sequence_header()
        parts = []
        for _ in range(count):
            if buffer.get_bool():
                parts.append(buffer.get_door_id())
            else:
                parts.append(buffer.get_string())
        return parts


class WriteOnlyHalf:
    """No unmarshal_rep defined: nothing to compare, nothing to flag."""

    def marshal_rep(self, rep, buffer):
        buffer.put_int64(rep.stamp)


class RepHooksAgree:
    """write/read hooks pair like marshal_rep/unmarshal_rep; the
    put_door/get_door callables they are handed are the door kind."""

    def write(self, buffer, put_door):
        put_door(self.door)
        buffer.put_int32(self.tag)

    @classmethod
    def read(cls, buffer, get_door):
        return cls(get_door(), buffer.get_int32())

"""Fixture: marshal/unmarshal asymmetries springlint must catch."""


class WritesMoreThanItReads:
    def marshal_rep(self, rep, buffer):
        buffer.put_door_id(rep.door)
        buffer.put_int32(rep.epoch)  # never read back

    def unmarshal_rep(self, buffer, binding):
        door = buffer.get_door_id()
        return door


class ReadsMoreThanItWrites:
    def marshal_rep(self, rep, buffer):
        buffer.put_string(rep.name)

    def unmarshal_rep(self, buffer, binding):
        name = buffer.get_string()
        flags = buffer.get_bool()  # never written
        return name, flags


class AsymmetricFullMarshal:
    def marshal(self, obj, buffer):
        buffer.put_object_header("thing")
        buffer.put_bytes(obj.payload)

    def unmarshal(self, buffer, binding):
        buffer.get_object_header()
        return buffer.get_string()  # wrote bytes, reads string


class RepHooksDisagree:
    """A representation's write/read hooks are one wire format too."""

    def write(self, buffer, put_door):
        put_door(self.door)
        buffer.put_int32(self.tag)  # never read back

    @classmethod
    def read(cls, buffer, get_door):
        return cls(get_door(), buffer.get_string())  # never written

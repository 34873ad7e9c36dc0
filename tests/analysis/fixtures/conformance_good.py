"""Fixture: conforming subcontracts springlint must accept."""


class ClientSubcontract:
    """Stand-in root."""


class ServerSubcontract:
    """Stand-in root."""


class IntermediateClient(ClientSubcontract):
    """Subclassed below, so leaf obligations (ops, id) don't apply."""

    def invoke(self, obj, buffer):
        pass

    def copy(self, obj):
        pass


class CompleteClient(IntermediateClient):
    """Leaf inheriting part of the vector, providing the rest."""

    id = "complete"

    def consume(self, obj):
        pass

    def marshal_rep(self, rep, buffer):
        pass

    def unmarshal_rep(self, buffer, binding):
        pass


class TailClient(ClientSubcontract):
    """The shared client tail: everything but invoke, written once over
    the representation's hooks (``subcontracts.common.RepClient``)."""

    def marshal_rep(self, obj, buffer):
        obj._rep.write(buffer, None)

    def unmarshal_rep(self, buffer, binding):
        return self.rep_type.read(buffer, None)

    def copy(self, obj):
        return obj._rep.duplicate(None)

    def marshal_copy(self, obj, buffer):
        obj._rep.duplicate(None).write(buffer, None)

    def consume(self, obj):
        obj._rep.held_doors()


class InvokeOnlyClient(TailClient):
    """Leaf that inherits the whole tail and writes only invoke."""

    id = "invoke-only"
    rep_type = object

    def invoke(self, obj, buffer):
        pass


class WrapsMarshalErrors(ClientSubcontract):
    """Catching a marshal error is fine when the handler re-raises."""

    id = "wrapper"

    def invoke(self, obj, buffer):
        try:
            buffer.get_int32()
        except MarshalError as exc:  # noqa: F821 - fixture, never imported
            raise RuntimeError("bad reply") from exc

    def copy(self, obj):
        pass

    def consume(self, obj):
        pass

    def marshal_rep(self, rep, buffer):
        pass

    def unmarshal_rep(self, buffer, binding):
        pass


class DefaultedParamsClient(ClientSubcontract):
    """Extra defaulted/star parameters keep stub compatibility."""

    id = "defaulted"

    def invoke(self, obj, buffer, *, trace=False):
        pass

    def copy(self, obj, deep=False):
        pass

    def consume(self, obj, **hints):
        pass

    def marshal_rep(self, rep, buffer):
        pass

    def unmarshal_rep(self, buffer, binding):
        pass


class CompleteServer(ServerSubcontract):
    id = "complete-server"

    def export(self, impl, binding, **options):
        pass

    def revoke(self, obj):
        pass

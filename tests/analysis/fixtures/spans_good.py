"""Fixture: sanctioned span idioms the span-balance rule must accept.

Not importable production code — parsed by the analyzer in tests.
"""


def with_statement_over_acquisition(tracer, domain):
    # The preferred form: __exit__ ends the span on every path.
    with tracer.begin_invoke(domain, "op", "singleton") as span:
        span.annotate(request_bytes=128)
        return 42


def with_statement_no_alias(tracer, domain, ctx):
    with tracer.begin_handler(domain, "handler", ctx):
        pass


def with_over_tracked_name(tracer, domain):
    span = tracer.begin_span(domain, "work", "span")
    with span:
        span.event("checkpoint")


def try_finally_end(tracer, domain, risky):
    span = tracer.begin_span(domain, "work", "span")
    try:
        risky()
    finally:
        span.end()


def returns_span_to_transfer_ownership(tracer, domain):
    span = tracer.begin_span(domain, "work", "span")
    span.annotate(owner="caller")
    return span


def ends_on_every_branch(tracer, domain, flag):
    span = tracer.begin_span(domain, "work", "span")
    if flag:
        span.annotate(path="fast")
        span.end()
    else:
        span.end()
    return flag


def nested_with_spans(tracer, domain):
    with tracer.begin_span(domain, "outer", "span"):
        with tracer.begin_span(domain, "inner", "span") as inner:
            inner.event("deep")


def conditional_span_ended_in_finally(tracer, domain, risky):
    # One body for traced and untraced callers: the span is None when
    # tracing is off and every use sits behind ``is not None``.
    span = tracer.begin_invoke(domain, "op", "singleton") if tracer.enabled else None
    try:
        risky()
        if span is not None:
            span.annotate(done=True)
    finally:
        if span is not None:
            span.end()

"""Fixture: every span-balance violation class springlint must catch.

Not importable production code — parsed by the analyzer in tests.
"""


def leaks_on_fallthrough(tracer, domain):
    span = tracer.begin_span(domain, "work", "span")
    span.annotate(step=1)
    # never ended: stays on the tracer stack forever


def leaks_on_one_branch(tracer, domain, flag):
    span = tracer.begin_invoke(domain, "op", "singleton")
    if flag:
        span.end()
    # else-path leaks: "not ended on all control-flow paths"


def double_end(tracer, domain):
    span = tracer.begin_span(domain, "work", "span")
    span.end()
    span.end()


def use_after_end(tracer, domain):
    span = tracer.begin_span(domain, "work", "span")
    span.end()
    span.annotate(too="late")


def leaks_on_early_return(tracer, domain, flag):
    span = tracer.begin_handler(domain, "handler", None)
    if flag:
        return None
    span.end()
    return None


def leaks_on_raise(tracer, domain, flag):
    span = tracer.begin_span(domain, "work", "span")
    if flag:
        raise ValueError("span is still open here")
    span.end()


def overwrites_while_open(tracer, domain):
    span = tracer.begin_span(domain, "first", "span")
    span = tracer.begin_span(domain, "second", "span")
    span.end()


def leaks_inside_loop(tracer, domain, items):
    for item in items:
        span = tracer.begin_span(domain, "iteration", "span")
        span.annotate(item=item)
    # each iteration begins a span that nothing ends


def conditional_span_never_ended(tracer, domain, risky):
    invoke_span = (
        tracer.begin_invoke(domain, "op", "singleton") if tracer.enabled else None
    )
    risky()
    if invoke_span is not None:
        invoke_span.annotate(done=True)
    # the None arm has nothing to end; the other arm leaks

"""Deliberate RPR007 violations: leaky spans and ungated eager labels."""


def span_never_closed(tr, req):
    span = tr.begin("work", "serve")
    do_work(req)
    return span


def close_not_guaranteed(tracer, req):
    span = tracer.begin("handle", "serve")
    process(req)  # an exception here leaves the span open forever
    tracer.end(span)


def ungated_eager_label(tr, req):
    if req.reason:
        tr.instant(f"reject:{req.reason}", "serve.reject")


def do_work(req):
    return req


def process(req):
    return req

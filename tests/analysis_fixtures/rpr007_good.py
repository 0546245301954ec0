"""Span-hygiene conformers: finally-closed spans and gated labels."""


def finally_closed(tr, req):
    span = None
    if tr is not None:
        span = tr.begin(f"req#{req.req_id}", "serve")
    try:
        do_work(req)
    finally:
        if tr is not None:
            tr.end(span)


def context_managed(tr, req):
    with tr.span("handle", "serve"):
        process(req)


def gated_instant(tr, req):
    if tr is not None:
        tr.instant(f"reject:{req.reason}", "serve.reject", args={"req": req.req_id})


def plain_labels_need_no_gate(tr):
    tr.instant("drain", "sched")
    tr.complete("tick", "sched", 0.0, 1.0)


def do_work(req):
    return req


def process(req):
    return req

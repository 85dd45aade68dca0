"""Load generator for `xqmft serve --port`, open or closed loop.

One thread drives a few persistent loopback connections with non-blocking
sockets. In an open loop every request has a scheduled send time; latency is
measured from that time (not from when the generator got round to sending
it), so a late generator shows up as latency and is reported separately as
lag. In a closed loop each connection sends its next request when the
previous response has arrived.
"""

import json
import os
import selectors
import signal
import socket
import subprocess
import time
import zlib


class Request:
    """One query request, its schedule and what came back."""

    __slots__ = ("rid", "qkey", "query", "doc", "inline", "at", "expect",
                 "sent", "done", "ok", "status", "header", "nbytes", "crc",
                 "correct")

    def __init__(self, qkey, query, doc, inline, at, expect):
        self.rid = 0
        self.qkey = qkey        # corpus id, or "<id>~<n>" for a variant
        self.query = query      # query text sent on the wire
        self.doc = doc          # absolute path of the document
        self.inline = inline    # send the document inline in "xml"
        self.at = at            # scheduled send time, seconds from start
        self.expect = expect    # (bytes, crc) of the GCX oracle output
        self.sent = None
        self.done = None
        self.ok = False
        self.status = "unsent"
        self.header = {}
        self.nbytes = 0
        self.crc = 0
        self.correct = False

    def rtt_ms(self):
        return (self.done - self.at) * 1e3

    def lag_ms(self):
        return (self.sent - self.at) * 1e3


class _Conn:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.wbuf = bytearray()
        self.rbuf = bytearray()
        self.pending = []       # requests awaiting responses, in send order
        self.head = 0
        self.current = None     # request whose payload is being read
        self.need = 0           # payload bytes still to read (+ newline)


class Server:
    """An `xqmft serve --port 0` child and its readiness line."""

    def __init__(self, xqmft, workers, popen=subprocess.Popen):
        self.t0 = time.monotonic()
        self.proc = popen(
            [xqmft, "serve", "--port", "0", "--workers", str(workers)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening port="):
            self.stop()
            raise RuntimeError("serve did not report a port: %r" % line)
        self.port = int(line.strip().split("=", 1)[1])

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def cpu_ms(self):
        with open("/proc/%d/stat" % self.proc.pid) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks * 1e3 / os.sysconf("SC_CLK_TCK")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout:
            self.proc.stdout.close()


def _wire_line(req, doc_text):
    body = {"id": req.rid, "query": req.query}
    if req.inline:
        body["xml"] = [doc_text(req.doc)]
    else:
        body["inputs"] = [req.doc]
    return (json.dumps(body) + "\n").encode()


def drive(port, schedule, doc_text, connections=4, timeout_s=60.0,
          tracer=None, closed_for=None):
    """Sends `schedule` over `connections` persistent connections and waits
    for every response; returns the requests that were sent.

    Open loop (default): each request goes out at its scheduled time `at`
    (sorted), whatever is still in flight. Closed loop (`closed_for`
    seconds): each connection keeps one request in flight, sending the next
    one from `schedule` as soon as a response completes, until `closed_for`
    has passed; a request's `at` is then its send time.

    `doc_text(path)` returns the document text for inline requests. Requests
    still unanswered `timeout_s` after the last send stay failed. With a
    `tracer`, each request records a `net.request` span and the
    server-reported compile and stream phases as its children.
    """
    sel = selectors.DefaultSelector()
    conns = [_Conn(port) for _ in range(connections)]
    for c in conns:
        sel.register(c.sock, selectors.EVENT_READ, c)
    outstanding = 0
    nxt = 0
    t0 = time.monotonic()
    last_send = 0.0

    def send(c, now):
        nonlocal nxt, outstanding, last_send
        req = schedule[nxt]
        req.rid = nxt
        nxt += 1
        if closed_for is not None:
            req.at = now
        if not c.wbuf:
            sel.modify(c.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, c)
        c.wbuf += _wire_line(req, doc_text)
        c.pending.append(req)
        req.sent = now
        req.status = "sent"
        outstanding += 1
        last_send = now

    def finish(req, now):
        req.done = now
        if tracer is not None:
            _trace_request(tracer, req, t0)

    if closed_for is not None:
        for c in conns:
            if nxt < len(schedule):
                send(c, 0.0)
    while outstanding or (closed_for is None and nxt < len(schedule)):
        now = time.monotonic() - t0
        if now > last_send + timeout_s:
            break
        while closed_for is None and nxt < len(schedule) and schedule[nxt].at <= now:
            send(conns[nxt % connections], now)
        wait = 0.2
        if closed_for is None and nxt < len(schedule):
            wait = min(wait, schedule[nxt].at - now)
        for key, mask in sel.select(timeout=max(0.0, wait)):
            c = key.data
            if mask & selectors.EVENT_WRITE and c.wbuf:
                try:
                    n = c.sock.send(c.wbuf)
                except BlockingIOError:
                    n = 0
                del c.wbuf[:n]
                if not c.wbuf:
                    sel.modify(c.sock, selectors.EVENT_READ, c)
            if mask & selectors.EVENT_READ:
                try:
                    chunk = c.sock.recv(1 << 20)
                except BlockingIOError:
                    continue
                if not chunk:
                    raise RuntimeError("server closed a connection")
                c.rbuf += chunk
                now = time.monotonic() - t0
                done = _parse(c, now, finish)
                outstanding -= done
                if closed_for is not None and now < closed_for:
                    for _ in range(done):
                        if nxt < len(schedule):
                            send(c, now)
    for c in conns:
        sel.unregister(c.sock)
        c.sock.close()
    sel.close()
    return schedule[:nxt]


def _parse(c, now, finish):
    """Consumes complete responses from the connection's read buffer."""
    completed = 0
    pos = 0
    buf = c.rbuf
    while True:
        if c.current is not None:
            take = min(c.need, len(buf) - pos)
            req = c.current
            # The payload and its framing newline are exactly the bytes
            # `xqmft run` writes, which is what the oracle digests.
            req.crc = zlib.crc32(memoryview(buf)[pos:pos + take], req.crc)
            req.nbytes += take
            c.need -= take
            pos += take
            if c.need:
                break
            c.current = None
            req.correct = (req.nbytes, req.crc) == req.expect
            req.ok = True
            finish(req, now)
            completed += 1
            continue
        nl = buf.find(b"\n", pos)
        if nl < 0:
            break
        header = json.loads(bytes(buf[pos:nl]))
        pos = nl + 1
        req = c.pending[c.head]
        c.head += 1
        req.header = header
        if header.get("ok"):
            req.status = "ok"
            c.current = req
            c.need = int(header["bytes"]) + 1
        else:
            req.status = header.get("status", "error")
            finish(req, now)
            completed += 1
    del buf[:pos]
    return completed


def _trace_request(tracer, req, t0):
    base = int(t0 * 1e9)
    start = base + int(req.at * 1e9)
    end = base + int(req.done * 1e9)
    op = "req%d" % (len(tracer.spans) + 1)  # the root span's id: unique
    root = tracer.add(op, "net.request", start, end, 0,
                      {"ok": 1 if req.correct else 0})
    h = req.header
    if req.ok:
        stream_ns = int(float(h.get("stream_ms", 0)) * 1e6)
        compile_ns = int(float(h.get("compile_ms", 0)) * 1e6)
        # The server reports durations, not timestamps: its phases are
        # placed at the end of the round trip, compile before stream.
        tracer.add(op, "service.compile", end - stream_ns - compile_ns,
                   end - stream_ns, root, {"miss": 1 if h.get("cache") == "miss" else 0})
        tracer.add(op, "service.stream", end - stream_ns, end, root,
                   {"peak_bytes": h.get("peak_mem_bytes", 0)})


def command(port, cmd):
    """Sends one {"cmd": ...} request on a fresh connection; returns the
    parsed response header."""
    with socket.create_connection(("127.0.0.1", port)) as s:
        s.sendall((json.dumps({"cmd": cmd}) + "\n").encode())
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(65536)
            if not chunk:
                raise RuntimeError("server closed during %s" % cmd)
            buf += chunk
    return json.loads(buf.split(b"\n", 1)[0])

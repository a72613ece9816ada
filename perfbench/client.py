"""A single-threaded HTTP/1.1 load client.

One `selectors` loop drives every connection, so the client is one
thread however many connections it holds:

* a `Reader` is a closed loop: its connection sends its next request
  only when the previous reply has arrived, cycling through the read
  classes;
* a `Writer` is an open loop: batch i is due at start + i / rate and is
  sent when due, pipelined behind any reply still outstanding. Its
  latency runs from the due time to the reply, and the run records how
  late each send was against its due time. After each reply it may send
  one read on a second connection.
"""

import selectors
import socket
import time


class Conn:
    """One keep-alive connection; requests may be pipelined."""

    def __init__(self, addr):
        host, port = addr.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buf = b""
        self.out = b""
        self.inflight = []  # FIFO of per-request tags awaiting replies

    def send(self, path, body, tag):
        data = body.encode()
        self.out += (b"POST %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n"
                     % (path.encode(), len(data))) + data
        self.inflight.append(tag)
        self.flush()

    def flush(self):
        while self.out:
            try:
                n = self.sock.send(self.out)
            except BlockingIOError:
                return
            self.out = self.out[n:]

    def replies(self):
        """Read what the socket has and yield (tag, status, body) per
        complete reply."""
        while True:
            try:
                chunk = self.sock.recv(1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
            if len(chunk) < (1 << 16):
                break
        while True:
            end = self.buf.find(b"\r\n\r\n")
            if end < 0:
                return
            head = self.buf[:end].split(b"\r\n")
            length = 0
            for line in head[1:]:
                k, _, v = line.partition(b":")
                if k.strip().lower() == b"content-length":
                    length = int(v)
            if len(self.buf) < end + 4 + length:
                return
            status = int(head[0].split()[1])
            body = self.buf[end + 4:end + 4 + length].decode()
            self.buf = self.buf[end + 4 + length:]
            yield self.inflight.pop(0), status, body

    def close(self):
        self.sock.close()


def call(addr, path, body, method="POST"):
    """One blocking request on a fresh connection -> (status, body)."""
    host, port = addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=60) as s:
        data = body.encode()
        s.sendall(b"%s %s HTTP/1.1\r\nHost: bench\r\nConnection: close\r\nContent-Length: %d\r\n\r\n"
                  % (method.encode(), path.encode(), len(data)) + data)
        buf = b""
        while True:
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    return int(head.split()[1]), rest.decode()


class Reader:
    """Closed loop over one connection. It cycles through the classes of
    `plan` (class -> list of (path, body, request id)), starting `offset`
    classes in, and through each class's requests in turn."""

    def __init__(self, addr, plan, offset=0):
        self.conns = [Conn(addr)]
        self.plan = plan
        self.classes = list(plan)
        self.sent = offset
        self.pending = False
        self.samples = []  # (class, request id, latency us, status, body, arrival)

    def start(self, now):
        self._send(now)

    def _send(self, now):
        cls = self.classes[self.sent % len(self.classes)]
        reqs = self.plan[cls]
        path, body, rid = reqs[(self.sent // len(self.classes)) % len(reqs)]
        self.conns[0].send(path, body, (cls, rid, now))
        self.pending = True
        self.sent += 1

    def on_reply(self, tag, status, body, now, running):
        cls, rid, t0 = tag
        self.samples.append((cls, rid, (now - t0) * 1e6, status, body, now))
        self.pending = False
        if running:
            self._send(now)

    def idle(self):
        return not self.pending


class Writer:
    """Open loop: `batches[i]` is due at start + i / rate. After the reply
    to batch i, the (path, body) `probe` is sent on a second connection."""

    def __init__(self, addr, batches, rate, probe):
        self.conn = Conn(addr)
        self.probe_conn = Conn(addr)
        self.conns = [self.conn, self.probe_conn]
        self.batches = batches
        self.rate = rate
        self.probe = probe
        self.sent = 0
        self.acks = []  # (batch index, latency from due us, status, body)
        self.probes = []  # (batch index, status, body)
        self.lateness = []  # us between due time and actual send

    def start(self, now):
        self.t0 = now

    def due(self, i):
        return self.t0 + i / self.rate

    def poll(self, now, running):
        """Send every batch that has come due; return the next due time."""
        while running and self.sent < len(self.batches) and self.due(self.sent) <= now:
            self.lateness.append((now - self.due(self.sent)) * 1e6)
            self.conn.send("/update", self.batches[self.sent], self.sent)
            self.sent += 1
        if running and self.sent < len(self.batches):
            return self.due(self.sent)
        return None

    def on_reply(self, tag, status, body, now, running):
        if isinstance(tag, tuple):
            self.probes.append((tag[1], status, body))
            return
        self.acks.append((tag, (now - self.due(tag)) * 1e6, status, body))
        self.probe_conn.send(*self.probe, ("probe", tag))

    def idle(self):
        return not self.conn.inflight and not self.probe_conn.inflight


def drive(agents, seconds=None):
    """Run the agents for `seconds`, or with `seconds=None` until every
    writer has sent its last batch, then let outstanding replies drain.
    Returns the measured window as (start, end) `perf_counter` times;
    every sample carries its arrival time."""
    sel = selectors.DefaultSelector()
    for a in agents:
        for c in a.conns:
            sel.register(c.sock, selectors.EVENT_READ, (a, c))
    writers = [a for a in agents if isinstance(a, Writer)]
    start = time.perf_counter()
    for a in agents:
        a.start(start)
    end = start + seconds if seconds is not None else float("inf")

    def running(now):
        if seconds is None:
            return any(w.sent < len(w.batches) for w in writers)
        return now < end

    while True:
        now = time.perf_counter()
        go = running(now)
        wake = min(end, now + 1.0)
        for w in writers:
            t = w.poll(now, go)
            if t is not None:
                wake = min(wake, t)
        if not go and all(a.idle() for a in agents):
            break
        for key, _ in sel.select(max(0.0, wake - time.perf_counter())):
            agent, conn = key.data
            for tag, status, body in conn.replies():
                t = time.perf_counter()
                agent.on_reply(tag, status, body, t, running(t))
        for a in agents:
            for c in a.conns:
                c.flush()
    sel.close()
    for a in agents:
        for c in a.conns:
            c.close()
    return start, min(end, time.perf_counter())

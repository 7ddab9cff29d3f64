"""HTTP load generator for ``serve-open`` (its own process).

Usage: python3 perfbench/loadgen.py PORT

Reads one JSON command per line on standard input::

    {"rate": 100.0, "bodies": ["{...}", ...], "keep": [3, 17]}

and sends ``POST /analyze`` with ``bodies[i]`` due at ``t0 + i / rate``,
from two worker threads, so at most two connections are in flight: when
both are busy a due request waits, and that wait counts in its latency.
A command with ``"rate": null`` and ``"seconds": T`` runs closed loop
instead: each worker sends its next body as soon as its last response
has arrived (due = sent), and stops taking bodies ``T`` seconds after
``t0``.  It answers each command with one JSON line: per request sent
``[due, start, connected, first_byte, end, status, sent, received]``
(seconds relative to ``t0``; status 0 on a socket error or timeout) and
the response bodies of the positions in ``keep``.  EOF ends the process.
"""

import gc
import json
import socket
import sys
import threading
import time

WORKERS = 2
TIMEOUT_S = 10.0


def _send(port: int, payload: bytes):
    start = time.perf_counter()
    connected = first = None
    chunks = []
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT_S) as sock:
            connected = time.perf_counter()
            sock.sendall(payload)
            while True:
                data = sock.recv(65536)
                if first is None:
                    first = time.perf_counter()
                if not data:
                    break
                chunks.append(data)
    except OSError:
        end = time.perf_counter()
        return start, connected or end, first or end, end, 0, b""
    end = time.perf_counter()
    response = b"".join(chunks)
    try:
        status = int(response.split(b" ", 2)[1])
    except (IndexError, ValueError):
        status = 0
    return start, connected, first, end, status, response


def run_phase(port: int, rate, bodies, keep, seconds=None):
    payloads = [
        (
            "POST /analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body.encode())}\r\nConnection: close\r\n\r\n"
        ).encode("ascii")
        + body.encode()
        for body in bodies
    ]
    keep = set(keep)
    records = [None] * len(payloads)
    kept = {}
    lock = threading.Lock()
    cursor = [0]
    t0 = time.perf_counter() + 0.05
    closed = rate is None
    stop = t0 + (seconds if closed else 0.0)

    def worker():
        while True:
            with lock:
                i = cursor[0]
                if i >= len(payloads) or (closed and time.perf_counter() >= stop):
                    return
                cursor[0] += 1
            if closed:
                due = max(t0, time.perf_counter())
            else:
                due = t0 + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            start, connected, first, end, status, response = _send(port, payloads[i])
            records[i] = [
                due - t0, start - t0, connected - t0, first - t0, end - t0,
                status, len(payloads[i]), len(response),
            ]
            if i in keep:
                kept[i] = response.split(b"\r\n\r\n", 1)[-1].decode("utf-8", "replace")

    threads = [threading.Thread(target=worker) for _ in range(WORKERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {
        "records": records[: cursor[0]],
        "kept": {str(i): body for i, body in kept.items()},
    }


def main() -> int:
    port = int(sys.argv[1])
    # This process only measures; a collector pause here would be
    # charged to the server as latency.
    gc.disable()
    for line in sys.stdin:
        command = json.loads(line)
        rate = command["rate"]
        result = run_phase(
            port,
            None if rate is None else float(rate),
            command["bodies"],
            command.get("keep", ()),
            command.get("seconds"),
        )
        sys.stdout.write(json.dumps(result) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

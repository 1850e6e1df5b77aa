"""Load generator of the capture workload: replays pre-encoded glove streams.

Run as ``python3 generator.py RUN_DIR``. It reads ``capture.wire`` and
``capture.json`` written at set-up, listens on a loopback control port
and prints ``ready <port>``. The receiver connects there once and sends
one line ``<slot> <port>`` per session, then starts the session's clock
and accepts. For each line the generator opens one connection per glove
to that port and sends both gloves' bytes while the receiver reads them,
``CHUNK`` bytes per send, then closes both and answers ``sent``. It
exits when the control connection closes. It does not import gripstream.

Between sessions it polls the control connection without blocking, so
that a request is served at once rather than after the wake-up of an
idle CPU.
"""

from __future__ import annotations

import json
import select
import socket
import sys
from pathlib import Path

# One send per 41 bytes, the two gloves in turn, as a glove (and
# ``simulator.stream_session``) sends one frame at a time. Sends are cut
# at the clean stream's frame ends, so on a noisy glove they split frames
# wherever its damage shifted them. Pre-encoded, this offers about 230k
# frames/s to a draining sink, several times what the receiver takes.
CHUNK = 41
SEND_BUFFER = 1 << 20


def connect(port: int) -> socket.socket:
    sock = socket.socket()
    # room for a whole glove stream, so a send never waits on the receiver
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SEND_BUFFER)
    # each send goes out at once, not held back for the receiver's ACK
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(30)
    sock.connect(("127.0.0.1", port))
    return sock


def send_session(port: int, streams) -> None:
    """Connect once per stream to 127.0.0.1:port, send the streams in turns
    of CHUNK bytes each, close."""
    socks = [connect(port) for _ in streams]
    try:
        views = [memoryview(stream) for stream in streams]
        for offset in range(0, max(map(len, streams)), CHUNK):
            for sock, view in zip(socks, views):
                if offset < len(view):
                    sock.sendall(view[offset:offset + CHUNK])
    finally:
        for sock in socks:
            sock.close()


def requests(control: socket.socket):
    """Yield each line from ``control``; wait for the next one by polling."""
    pending = b""
    while True:
        while b"\n" not in pending:
            while not select.select([control], [], [], 0)[0]:
                pass
            data = control.recv(4096)
            if not data:
                return
            pending += data
        line, pending = pending.split(b"\n", 1)
        yield line


def main(run_dir: Path) -> int:
    wire = (run_dir / "capture.wire").read_bytes()
    streams = [[wire[g["offset"]:g["offset"] + g["length"]] for g in slot["gloves"].values()]
               for slot in json.loads((run_dir / "capture.json").read_text())]
    with socket.create_server(("127.0.0.1", 0)) as server:
        print(f"ready {server.getsockname()[1]}", flush=True)
        control, _ = server.accept()
    with control:
        for line in requests(control):
            slot, port = map(int, line.split())
            send_session(port, streams[slot])
            control.sendall(b"sent\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))

"""Local stand-in for a phrase-retrieval service.

Serves ``GET /?question=<text>&top_n=<n>`` from a JSON table
{question text: [result record, ...]} after a fixed per-request delay,
``DELAY_S``, and ``GET /stats`` with the number of questions answered and
the most connections it ever held open at once. It binds an ephemeral port on
127.0.0.1, prints that port as its first line of output, and serves until
it is terminated. It makes no outbound connections.

    python3 perfbench/stub.py --table TABLE.json
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

# Service time per question. DensePhrases, the phrase-retrieval model the
# paper queries, "processes more than 10 questions per second on CPUs"
# (Lee et al., "Learning Dense Representations of Phrases at Scale",
# ACL 2021, abstract): at most 100 ms per question.
DELAY_S = 0.1


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, table: dict[str, list[dict]]):
        super().__init__(("127.0.0.1", 0), StubHandler)
        self.table = table
        self.lock = threading.Lock()
        self.requests = 0
        self.active = 0
        self.max_active = 0


class StubHandler(BaseHTTPRequestHandler):
    server: StubServer

    def handle(self):
        # one connection per handle() call: count the ones open at once
        with self.server.lock:
            self.server.active += 1
            self.server.max_active = max(self.server.max_active, self.server.active)
        try:
            super().handle()
        finally:
            with self.server.lock:
                self.server.active -= 1

    def do_GET(self):
        url = urlsplit(self.path)
        if url.path == "/stats":
            with self.server.lock:
                stats = {"requests": self.server.requests, "max_active": self.server.max_active}
            return self._send(200, stats)
        query = parse_qs(url.query)
        records = self.server.table.get(query.get("question", [""])[0])
        if records is None:
            return self._send(404, {"error": "unknown question"})
        time.sleep(DELAY_S)
        with self.server.lock:
            self.server.requests += 1
        top_n = int(query.get("top_n", [len(records)])[0])
        self._send(200, records[:top_n])

    def _send(self, status: int, doc) -> None:
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True, help="JSON {question text: records}")
    args = parser.parse_args(argv)
    with open(args.table, encoding="utf-8") as fh:
        table = json.load(fh)
    with StubServer(table) as server:
        print(server.server_address[1], flush=True)
        server.serve_forever()
    return 0


if __name__ == "__main__":
    sys.exit(main())

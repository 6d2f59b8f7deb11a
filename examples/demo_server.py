#!/usr/bin/env python3
"""Serve the web-based demonstration system (paper §3, Figures 2-3).

Starts the offline equivalent of the paper's demo: a local web page
where you click source and target on the Melbourne map, see the four
blinded approaches' routes (press A/B/C/D to switch), and submit 1-5
ratings that land in an SQLite store.

Run with:  python examples/demo_server.py [--port 8080] [--db demo.sqlite]
then open http://127.0.0.1:8080/ in a browser.
"""

import argparse
import logging

from repro import default_planners, melbourne
from repro.demo import DemoServer, QueryProcessor, ResponseStore


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--size", default="small", choices=["small", "medium", "full"]
    )
    parser.add_argument(
        "--db",
        default=":memory:",
        help="SQLite file for submitted ratings (default: in-memory)",
    )
    args = parser.parse_args()
    logging.basicConfig(level=logging.INFO)  # one log line per request

    print(f"building melbourne ({args.size}) ...")
    network = melbourne(size=args.size)
    processor = QueryProcessor(network, default_planners(network))
    server = DemoServer(
        processor,
        store=ResponseStore(args.db),
        port=args.port,
    )
    print(f"demo running at {server.url} — Ctrl-C to stop")
    server.serve_forever()


if __name__ == "__main__":
    main()

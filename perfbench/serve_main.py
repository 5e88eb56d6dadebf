"""Run ``repro serve``, optionally with the span wrappers installed.

    python3 perfbench/serve_main.py [--spans PATH] -- <repro serve args>

With ``--spans`` the wrappers of :mod:`perfbench.hooks` are installed
before the server starts, and the recorded spans are written to PATH
once the server has drained (SIGINT or SIGTERM stops it).
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", default="")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    from repro import cli

    rec = None
    if args.spans:
        from perfbench.hooks import install_server
        from perfbench.spans import Recorder

        rec = Recorder("s")
        install_server(rec)
    try:
        return cli.main(["serve", *serve_args])
    finally:
        if rec is not None:
            rec.dump(args.spans)
        sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())

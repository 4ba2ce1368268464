"""Run one mersenne-omega CLI command with layer spans recorded.

The cli_warm traced run starts this in a fresh process for each query:

    python3 perfbench/cli_child.py SPANS_JSON CLI-ARGS...

It prints what the CLI prints, exits with the CLI's exit code, and writes
the spans to SPANS_JSON.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
from mersenne_omega import cli  # noqa: E402

if __name__ == "__main__":
    recorder = spans.SpanRecorder()
    recorder.install()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        recorder.dump(sys.argv[1])
    sys.exit(code)

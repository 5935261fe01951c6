"""One run of the program in a fresh process, started by run.py.

    python3 perfbench/child.py setup NETWORK
        time `import tracepattern`, load_network(NETWORK) and the spatial
        index build; print {"setup_s": ...}
    python3 perfbench/child.py cli [--trace SPANS.json] ARGS...
        run `tracepattern ARGS...` in this process; with --trace, record
        spans around the layer boundaries and write them to SPANS.json

tracepattern must be importable (run.py puts the checkout's src/ on
PYTHONPATH).
"""

import json
import sys
import time


def setup(network_path):
    start = time.perf_counter()
    import tracepattern

    net = tracepattern.load_network(network_path)
    net.index  # built lazily on first access
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def cli(argv):
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
        import tracer

        recorder = tracer.install()
    from tracepattern.cli import main

    try:
        main(argv, prog_name="tracepattern", standalone_mode=False)
    finally:
        if spans_path:
            recorder.dump(spans_path)


if __name__ == "__main__":
    if sys.argv[1:2] == ["setup"]:
        setup(sys.argv[2])
    elif sys.argv[1:2] == ["cli"]:
        cli(sys.argv[2:])
    else:
        sys.exit(__doc__)

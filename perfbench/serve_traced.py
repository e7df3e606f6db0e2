"""``repro serve`` with the benchmark's spans installed.

Started by ``serve_mixed.py`` for the traced run in place of
``python -m repro serve``: it wraps the engine and serve layers (see
``layers.py``), then calls :func:`repro.serve.app.run` with the same
settings.  When the server shuts down it writes the span summary of
the time window named in ``<spans-out>.window`` to ``<spans-out>``.

    python3 perfbench/serve_traced.py --spans-out OUT --port 0 \\
        --hot-set 'hilbert@2x256'
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import install_engine, install_serve  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--hot-set", default="")
    args = parser.parse_args()

    tracer = Tracer()
    install_engine(tracer)
    install_serve(tracer)
    from repro.serve import ServeConfig, parse_hot_set, run

    code = run(ServeConfig(port=args.port, hot_set=parse_hot_set(args.hot_set)))
    window_path = Path(args.spans_out + ".window")
    window = {"lo": 0, "hi": None}
    if window_path.exists():
        window = json.loads(window_path.read_text())
    summary = tracer.summary(window["lo"], window["hi"])
    Path(args.spans_out).write_text(json.dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())

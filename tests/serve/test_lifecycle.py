"""Lifecycle tests: clean teardown of the serve stack.

The hard requirement: shutdown drains compute and ends the process
cleanly — both the in-process :class:`BackgroundServer` path and the
real-process SIGTERM path the CLI smoke exercises.  The service is one
process and owns no shared memory, so ``/stats`` has no ``shm``
section.
"""

import json
import os
import re
import signal
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.serve import BackgroundServer, ServeConfig

from tests.serve.conftest import http as fetch


class TestBackgroundServer:
    def test_stop_shuts_down_cleanly(self):
        config = ServeConfig(
            port=0, hot_set=(("hilbert", 2, 8),), backend="numpy"
        )
        server = BackgroundServer(config)
        try:
            _, stats = fetch(server.url + "/stats")
            assert stats["warm_pairs"] == ["hilbert@2x8"]
            assert "shm" not in stats
        finally:
            server.stop()
        assert not server._thread.is_alive()
        assert len(server.service.flight) == 0
        with pytest.raises(urllib.error.URLError):
            fetch(server.url + "/healthz", timeout=5)

    def test_context_manager_round_trip(self):
        with BackgroundServer(ServeConfig(port=0)) as server:
            status, _ = fetch(server.url + "/healthz")
            assert status == 200
        assert not server._thread.is_alive()

    def test_ephemeral_ports_are_independent(self):
        with BackgroundServer(ServeConfig(port=0)) as a:
            with BackgroundServer(ServeConfig(port=0)) as b:
                assert a.port != b.port
                assert fetch(b.url + "/healthz")[0] == 200
            assert fetch(a.url + "/healthz")[0] == 200


class TestSigterm:
    def test_sigterm_exits_cleanly(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--hot-set",
                "hilbert@2x8",
                "--backend",
                "numpy",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", banner)
            assert match, f"no address banner in {banner!r}"
            url = f"http://{match.group(1)}:{match.group(2)}"
            with urllib.request.urlopen(url + "/healthz", timeout=30) as r:
                assert r.status == 200
            with urllib.request.urlopen(url + "/stats", timeout=30) as r:
                stats = json.loads(r.read())
            assert stats["warm_pairs"] == ["hilbert@2x8"]
            assert "shm" not in stats
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert "shut down cleanly" in output

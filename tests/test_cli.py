"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestPlan:
    def test_plan_single_approach(self, capsys):
        code = main(
            [
                "plan",
                "--city",
                "melbourne",
                "--size",
                "small",
                "--approach",
                "Plateaus",
                "0",
                "50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Plateaus:" in out
        assert "min," in out

    def test_plan_all_approaches(self, capsys):
        code = main(["plan", "--size", "small", "0", "50"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("Google Maps", "Plateaus", "Dissimilarity", "Penalty"):
            assert f"{name}:" in out

    def test_unknown_approach_fails(self, capsys):
        code = main(
            ["plan", "--size", "small", "--approach", "Waze", "0", "50"]
        )
        assert code == 2

    def test_bad_query_reports_error(self, capsys):
        code = main(["plan", "--size", "small", "0", "0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestBuildCity:
    def test_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "city.json"
        code = main(
            [
                "build-city",
                "--city",
                "copenhagen",
                "--size",
                "small",
                "--format",
                "json",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        payload = json.loads(out_file.read_text())
        assert payload["format"] == "repro-road-network"
        assert payload["name"] == "copenhagen-small"

    def test_csv_output(self, tmp_path, capsys):
        stem = tmp_path / "city"
        code = main(
            [
                "build-city",
                "--size",
                "small",
                "--format",
                "csv",
                "--out",
                str(stem),
            ]
        )
        assert code == 0
        assert (tmp_path / "city.nodes.csv").exists()
        assert (tmp_path / "city.edges.csv").exists()


class TestCityBuild:
    def test_streams_keeps_the_spool_and_matches_snapshot_build(
        self, tmp_path, capsys
    ):
        network_args = ["--city", "copenhagen", "--size", "small"]
        spool = tmp_path / "copenhagen.osm.xml"
        streamed = tmp_path / "streamed.rprn"
        built = tmp_path / "built.rprn"
        assert main(
            ["city", "build", *network_args, "--xml-spool", str(spool),
             "--out", str(streamed)]
        ) == 0
        assert main(
            ["snapshot", "build", *network_args, "--out", str(built)]
        ) == 0
        assert spool.read_bytes().startswith(b"<?xml")
        assert streamed.read_bytes() == built.read_bytes()

    def test_no_xml_and_xml_spool_are_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["city", "build", "--no-xml", "--xml-spool", "city.osm",
                 "--out", "city.rprn"]
            )


class TestFigure:
    def test_figure1(self, capsys):
        code = main(["figure", "--size", "small", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "(d)" in out

    def test_figure4(self, capsys):
        code = main(["figure", "--size", "small", "4", "--queries", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4 case study" in out
        assert "winner flips with the dataset: True" in out


class TestTraffic:
    def test_generate_then_replay_round_trip(self, tmp_path, capsys):
        log = tmp_path / "updates.jsonl"
        code = main([
            "traffic", "generate", "--size", "small",
            "--tick-minutes", "120", "--out", str(log),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote 6 traffic batches" in out
        assert str(log) in out
        assert log.exists()

        code = main(["traffic", "replay", str(log), "--json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "replaying 6 batches" in out
        assert "against melbourne/small (seed 0)" in out
        # A clean log applies everything and keeps the breaker closed.
        assert "applied 6, quarantined 0" in out
        stats = json.loads(out.strip().splitlines()[-1])
        assert stats["epoch_id"] == "epoch-6"
        assert stats["feed_breaker"]["state"] == "closed"

    def test_replay_verbose_reports_quarantines(self, tmp_path, capsys):
        log = tmp_path / "faulty.jsonl"
        code = main([
            "traffic", "generate", "--size", "small",
            "--tick-minutes", "120", "--fault-rate", "0.25",
            "--out", str(log),
        ])
        assert code == 0
        capsys.readouterr()

        code = main(["traffic", "replay", str(log), "--verbose"])
        assert code == 0
        out = capsys.readouterr().out
        assert "applied ->" in out  # per-batch lines
        assert "quarantined" in out

    def test_replay_rejects_a_non_log_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text("not a traffic log\n")
        code = main(["traffic", "replay", str(bogus)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrafficFeeder:
    def test_feeder_drives_batches_then_stops(self, grid10):
        import time

        from repro.cli import _TrafficFeeder
        from repro.serving import LiveTrafficController
        from repro.traffic import TrafficModel, TrafficUpdateSource

        live = LiveTrafficController(grid10)
        batches = list(TrafficUpdateSource(
            TrafficModel(grid10, seed=0), tick_minutes=240.0
        ))
        feeder = _TrafficFeeder(live, batches, interval_s=0.0)
        feeder.start()
        deadline = time.monotonic() + 10.0
        while (
            live.current.seq < batches[-1].seq
            and time.monotonic() < deadline
        ):
            time.sleep(0.01)
        feeder.stop()
        assert live.current.seq == batches[-1].seq
        assert live.stats_payload()["applied"] == len(batches)


class TestServe:
    """``repro serve`` end to end: a real worker behind the front end."""

    def test_port_zero_prints_the_bound_url_and_serves(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys
        import time
        import urllib.error
        import urllib.request
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src, TMPDIR=str(tmp_path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--shard", "melbourne",
             "--size", "small", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env, start_new_session=True,
        )
        try:
            line = proc.stdout.readline()
            assert "http://" in line, line
            url = line.rsplit(" ", 1)[1].strip()
            assert not url.endswith(":0")

            def call(path, body=None):
                data = None if body is None else json.dumps(body).encode()
                try:
                    with urllib.request.urlopen(
                        urllib.request.Request(url + path, data=data),
                        timeout=60,
                    ) as response:
                        return response.status
                except urllib.error.HTTPError as exc:
                    return exc.code

            assert call("/healthz") == 200
            flat = {"version": 1, "source_lat": -37.83, "source_lon": 144.93,
                    "target_lat": -37.79, "target_lon": 144.99}
            assert call("/api/route", flat) == 200
            assert call("/api/route", {}) == 400
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            deadline = time.monotonic() + 10
            while True:  # the shard worker exits with the server
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                assert time.monotonic() < deadline, "worker outlived serve"
                time.sleep(0.1)
            assert not list(tmp_path.glob("repro-shards-*"))
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            proc.stdout.close()

    def test_startup_failure_removes_the_snapshot_directory(self, tmp_path):
        import os
        import socket
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src, TMPDIR=str(tmp_path))
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--shard",
                 "melbourne", "--size", "small", "--port", str(port)],
                capture_output=True, text=True, env=env, timeout=120,
            )
        assert proc.returncode != 0
        assert "built snapshot" in proc.stderr
        assert not list(tmp_path.glob("repro-shards-*"))

import argparse
import dataclasses
import errno
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import kho
from kho import _lapack, cli, fock, lattice, model, output, verify
from kho.cli import main


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def data_rows(path):
    return [ln for ln in read_lines(path) if not ln.startswith("#")]


def run_fresh(script: str, timeout=None, flags=()) -> subprocess.CompletedProcess:
    """script run in a fresh interpreter, given the interpreter options in
    flags, that imports this kho."""
    src = os.path.dirname(os.path.dirname(kho.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestEvolve:
    def test_zero_kicks_single_row(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["evolve", "--kicks", "0", "--dim", "64", "--out", str(out)])
        assert code == 0
        rows = data_rows(out)
        assert rows[0] == "kick,mean_energy"
        assert rows[1] == "0,0.5"
        assert len(rows) == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["evolve", "--kicks", "12", "--dim", "128", "--eta2", "phi*pi"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_truncation_unsafe_exit_code(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["evolve", "--kicks", "80", "--dim", "48", "--eta2", "pi",
                     "--out", str(out)])
        assert code == cli.EXIT_TRUNCATION
        assert any("truncation-unsafe" in ln for ln in read_lines(out))

    def test_state_json_roundtrip(self, tmp_path):
        out = tmp_path / "trace.csv"
        state_out = tmp_path / "state.json"
        code = main(["evolve", "--kicks", "5", "--dim", "96", "--out", str(out),
                     "--state-out", str(state_out)])
        assert code == 0
        saved = json.loads(state_out.read_text())
        amps = np.array([complex(re, im) for re, im in saved["amps"]])
        assert saved["dim"] == amps.size == 96
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("state_out", ["P", "./sub/../P", "{tmp}/P", "link"])
    def test_state_out_on_the_trace_path_is_usage_error(self, tmp_path, capsys,
                                                        monkeypatch, state_out):
        # the trace would overwrite the state JSON: refused before either is written
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "P")
        code = main(["evolve", "--dim", "4", "--kicks", "2", "--out", "P",
                     "--state-out", state_out.format(tmp=tmp_path)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("kho: error: --state-out and --out")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "sub"]

    def test_top_state_counts_in_a_basis_below_ten(self, tmp_path, capsys):
        # |alpha|^2 = 400 puts most of the renormalized state on n = 5 of 6
        out = tmp_path / "trace.csv"
        code = main(["evolve", "--dim", "6", "--kicks", "2", "--alpha", "20",
                     "--out", str(out)])
        assert code == cli.EXIT_TRUNCATION
        assert "truncation-unsafe from kick 1" in capsys.readouterr().err
        assert any("truncation-unsafe" in ln for ln in read_lines(out))

    def test_top_even_state_counts_in_a_basis_below_twenty(self, tmp_path, capsys):
        # the ground state stays even, and a tail of the top state alone
        # (n = 9) let n = 8 fill up unseen
        out = tmp_path / "trace.csv"
        code = main(["evolve", "--dim", "10", "--kicks", "108", "--out", str(out)])
        assert code == cli.EXIT_TRUNCATION
        assert "truncation-unsafe from kick 1" in capsys.readouterr().err

    def test_header_echoes_config(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["evolve", "--kicks", "1", "--dim", "64", "--eta2", "pi/2", "--out", str(out)])
        head = read_lines(out)[:2]
        assert head[0].startswith("# kho-csv v1 subcommand=evolve")
        assert "eta2=pi/2" in head[1]
        assert f"eta2_value={math.pi/2:.17g}" in head[1]


class TestQfunc:
    def test_vacuum_grid(self, tmp_path):
        out = tmp_path / "q.csv"
        code = main(["qfunc", "--eta2", "pi", "--kicks", "0", "--dim", "32",
                     "--window", "2", "--res", "5", "--out", str(out)])
        assert code == 0
        vals = np.array([[float(x) for x in ln.split(",")] for ln in data_rows(out)])
        assert vals.shape == (5, 5)
        xs = np.linspace(-2, 2, 5)
        want = np.exp(-(xs[None, :] ** 2 + xs[:, None] ** 2)) / math.pi
        assert np.abs(vals - want).max() < 1e-12
        assert any("window:" in ln for ln in read_lines(out))

    def test_res_takes_a_sample_count_per_axis(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["qfunc", "--eta2", "pi", "--kicks", "0", "--dim", "16", "--res", "5,7",
                     "--out", str(out)]) == 0
        rows = [ln.split(",") for ln in data_rows(out)]
        assert [len(row) for row in rows] == [5] * 7  # n_im rows of n_re values
        window = next(ln for ln in read_lines(out) if ln.startswith("# window:"))
        assert window.endswith(" n_re=5 n_im=7")

    def test_small_window_warns(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        code = main(["qfunc", "--eta2", "pi", "--kicks", "0", "--dim", "32",
                     "--alpha", "2.5+0j", "--window", "1", "--res", "9",
                     "--out", str(out)])
        assert code == 0
        assert "window" in capsys.readouterr().err
        assert any("window too small" in ln for ln in read_lines(out))

    def test_coarse_grid_warns(self, tmp_path, capsys):
        # grid spacing far above the width of Q: the Riemann sum overshoots 1
        out = tmp_path / "q.csv"
        code = main(["qfunc", "--eta2", "pi", "--dim", "64", "--kicks", "2", "--res", "3",
                     "--window", "1e57", "--out", str(out)])
        assert code == 0
        assert "too coarse" in capsys.readouterr().err
        head = [ln for ln in read_lines(out) if ln.startswith("#")]
        assert any("riemann_sum=3.1" in ln and "e+113" in ln for ln in head)
        assert any("warning: grid coarser than Q" in ln for ln in head)

    def test_resonant_panel_spreads_wider(self, tmp_path):
        """Second moment of the emitted resonant grid exceeds twice the
        nonresonant one at equal kick count."""
        moments = {}
        for eta2 in ("pi", "phi*pi"):
            out = tmp_path / f"{eta2.replace('*', '')}.csv"
            code = main(["qfunc", "--eta2", eta2, "--kicks", "36", "--dim", "512",
                         "--window", "14", "--res", "57", "--out", str(out)])
            assert code == 0
            vals = np.array([[float(x) for x in ln.split(",")] for ln in data_rows(out)])
            ax = np.linspace(-14, 14, 57)
            rr, ii = np.meshgrid(ax, ax)
            moments[eta2] = float(np.sum(vals * (rr ** 2 + ii ** 2)) / np.sum(vals))
        assert moments["pi"] > 2 * moments["phi*pi"]

    def test_default_panels(self, tmp_path):
        outdir = tmp_path / "panels"
        code = main(["qfunc", "--dim", "128", "--window", "10", "--res", "11",
                     "--out", str(outdir)])
        # figure-parameter panels at a cramped test dimension: truncation
        # flag is expected for the late-time runs
        assert code in (0, cli.EXIT_TRUNCATION)
        names = sorted(p.name for p in outdir.iterdir())
        assert names == [
            "qfunc_eta2-phipi_N108.csv",
            "qfunc_eta2-phipi_N36.csv",
            "qfunc_eta2-pi_N108.csv",
            "qfunc_eta2-pi_N36.csv",
        ]

    def test_panels_name_each_unsafe_panel(self, tmp_path, capsys):
        # at D=256 the phi*pi N=36 panel is the only one still safe
        outdir = tmp_path / "panels"
        code = main(["qfunc", "--dim", "256", "--window", "10", "--res", "11",
                     "--out", str(outdir)])
        assert code == cli.EXIT_TRUNCATION
        err = capsys.readouterr().err.splitlines()
        flagged = {"qfunc_eta2-pi_N36.csv": 28, "qfunc_eta2-pi_N108.csv": 28,
                   "qfunc_eta2-phipi_N108.csv": 37}
        assert [ln for ln in err if "truncation-unsafe" in ln] == [
            f"kho qfunc: truncation-unsafe from kick {kick} for {outdir / name}"
            for name, kick in flagged.items()]
        for path in outdir.iterdir():
            warnings = [ln for ln in read_lines(path) if "truncation-unsafe" in ln]
            kick = flagged.get(path.name)
            assert warnings == ([] if kick is None else
                                [f"# warning: truncation-unsafe from kick {kick}"])

    def test_default_outputs_of_panels_and_single_run_coexist(self, tmp_path, monkeypatch):
        # the single run's default CSV is not the panel set's directory
        monkeypatch.chdir(tmp_path)
        grid = ["--dim", "32", "--window", "10", "--res", "5"]
        assert main(["qfunc", *grid]) in (cli.EXIT_OK, cli.EXIT_TRUNCATION)
        assert main(["qfunc", *grid, "--eta2", "pi", "--kicks", "2"]) == cli.EXIT_OK
        assert len(list((tmp_path / "qfunc_out").iterdir())) == 4
        assert (tmp_path / "qfunc.csv").is_file()

    def test_default_panels_match_single_runs(self, tmp_path):
        # the panels of one eta^2 share one propagation and all four share one
        # Husimi walk; each file is byte-identical to its own single run,
        # the truncation-flagged N=108 panels included
        grid = ["--dim", "128", "--window", "10", "--res", "11"]
        main(["qfunc", *grid, "--out", str(tmp_path / "panels")])
        for eta2 in ("pi", "phi*pi"):
            for kicks in (36, 108):
                single = tmp_path / "single.csv"
                main(["qfunc", *grid, "--eta2", eta2, "--kicks", str(kicks),
                      "--out", str(single)])
                panel = tmp_path / "panels" / f"qfunc_eta2-{eta2.replace('*', '')}_N{kicks}.csv"
                assert panel.read_bytes() == single.read_bytes()


class TestEnergyScan:
    def test_single_point_consistent_with_evolve(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["energy-scan", "--scan-min", "pi", "--scan-max", "pi",
                     "--scan-points", "1", "--dim", "256", "--kicks", "400",
                     "--out", str(out)])
        assert code in (0, cli.EXIT_TRUNCATION)
        row = data_rows(out)[1].split(",")
        eta_sq, k50, k200 = float(row[0]), int(row[1]), int(row[2])
        assert eta_sq == pytest.approx(math.pi)
        params = model.SystemParams(r=1, q=4, kappa=-0.8, eta_sq=math.pi)
        budget = max(c for c in (k50, k200) if c >= 0) + 5
        trace = fock.evolve(fock.ground_state(256), params, budget).energies
        crossings = [c if c is not None else -1
                     for c in fock.energy_crossings(trace, [50.0, 200.0])]
        # -1 marks a target the scan's kick budget (400) never reached
        expect = [c if (c >= 0 and c <= 400) else -1 for c in crossings]
        assert [k50, k200] == expect

    def test_sentinel_when_exhausted(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["energy-scan", "--scan-min", "phi*pi", "--scan-max", "phi*pi",
                     "--scan-points", "1", "--dim", "128", "--kicks", "5",
                     "--out", str(out)])
        assert code == 0
        row = data_rows(out)[1].split(",")
        assert row[1] == "-1" and row[2] == "-1"

    @pytest.mark.parametrize("kicks, row, first_unsafe", [
        (48, "45,-1", None), (60, "45,-1", 49), (120, "45,89", 49)])
    def test_a_point_is_flagged_by_its_propagation(self, tmp_path, capsys,
                                                   kicks, row, first_unsafe):
        # at eta^2 = pi, D = 500 the leak passes its tolerance at kick 49,
        # after E=50 (kick 45) and before E=200 (kick 89): a point is flagged
        # when its propagation ran past kick 49, whichever targets it reached
        params = model.SystemParams(r=1, q=4, kappa=-0.8, eta_sq=math.pi)
        res = fock.kicks_to_energy(params, 200.0, kicks, dim=500)
        assert res.first_unsafe_kick == first_unsafe
        out = tmp_path / "scan.csv"
        code = main(["energy-scan", "--scan-min", "pi", "--scan-max", "pi",
                     "--scan-points", "1", "--dim", "500", "--kicks", str(kicks),
                     "--out", str(out)])
        assert data_rows(out)[1] == f"3.1415926535897931,{row}"
        flags = [ln for ln in read_lines(out) if "warning" in ln]
        err = capsys.readouterr().err
        if first_unsafe is None:
            assert (code, flags, err) == (cli.EXIT_OK, [], "")
        else:
            assert code == cli.EXIT_TRUNCATION
            assert flags == ["# warning: truncation-unsafe points (indices): 0"]
            assert err == "kho energy-scan: 1 truncation-unsafe points\n"

    def test_threads_match_serial(self, tmp_path, no_child_left):
        # points that stop at E=200 after 89 kicks or run the 400-kick budget:
        # the default (one process per usable CPU), and more processes than
        # points on any host, give the bytes of one process
        argv = ["energy-scan", "--scan-min", "0.8*pi", "--scan-max", "1.2*pi",
                "--scan-points", "5", "--dim", "500", "--kicks", "400"]
        outputs = []
        for threads in ([], ["--threads", "1"], ["--threads", "8"]):
            out = tmp_path / f"scan{len(outputs)}.csv"
            assert main(argv + threads + ["--out", str(out)]) == cli.EXIT_TRUNCATION
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        assert [row.split(",")[2] for row in data_rows(tmp_path / "scan1.csv")[1:]] == [
            "-1", "-1", "89", "-1", "-1"]


def _wait_for(path, timeout=60.0):
    """Poll until path exists: a worker in this process waits for a child to
    take a point before it goes on."""
    deadline = time.monotonic() + timeout
    while not path.exists():
        assert time.monotonic() < deadline, f"no child wrote {path}"
        time.sleep(0.005)


def _no_fork():
    raise AssertionError("os.fork called")


@pytest.fixture
def forks(monkeypatch):
    """Four usable CPUs, whatever the host's: the pids that called os.fork."""
    forks, fork = [], os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(os, "fork", counted)
    return forks


class TestForkedWorkers:
    """_map_points on one process or more: results come back in order, a
    failure anywhere ends the run as it would on one process, and every child
    is reaped (the no_child_left fixture)."""

    def test_a_scan_longer_than_the_index_pipe_is_sent_in_chunks(self, no_child_left):
        # 20,000 four-byte indices would overfill a 64 KiB pipe before the fork
        payloads = list(range(20_000))
        assert cli._map_points(lambda i: i * i, payloads, 3) == [i * i for i in payloads]

    def test_no_payload_gives_no_result(self, monkeypatch, no_child_left):
        monkeypatch.setattr(os, "fork", _no_fork)
        assert cli._map_points(lambda i: i, [], 3) == []

    def test_more_processes_than_points_fork_one_child_per_point_but_one(
            self, monkeypatch, no_child_left):
        forks, fork = [], os.fork

        def counted():
            forks.append(os.getpid())
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        assert cli._map_points(lambda i: -i, [1, 2, 3], 8) == [-1, -2, -3]
        assert forks == [os.getpid()] * 2

    def test_one_process_forks_nothing(self, monkeypatch, no_child_left):
        monkeypatch.setattr(os, "fork", _no_fork)
        assert cli._map_points(lambda i: i * i, list(range(5)), 1) == [0, 1, 4, 9, 16]

    def test_one_process_runs_no_point_after_a_failed_one(self, monkeypatch, no_child_left):
        monkeypatch.setattr(os, "fork", _no_fork)
        called = []

        def point(i):
            called.append(i)
            if i == 2:
                raise ValueError(f"point {i}")
            return i

        with pytest.raises(ValueError, match="^point 2$"):
            cli._map_points(point, list(range(5)), 1)
        assert called == [0, 1, 2]

    def test_each_process_moves_onto_a_cpu_of_its_own_then_restores_its_mask(
            self, tmp_path, monkeypatch, no_child_left):
        # the recorder appends to a file, so the children's calls are seen too
        log = tmp_path / "affinity"

        def record(pid, mask):
            with open(log, "a") as fh:
                fh.write(json.dumps([os.getpid(), sorted(mask)]) + "\n")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity", record, raising=False)
        assert cli._map_points(lambda i: -i, [1, 2, 3], 3) == [-1, -2, -3]
        masks = {}
        for pid, mask in map(json.loads, read_lines(log)):
            masks.setdefault(pid, []).append(mask)
        assert len(masks) == 3 and masks[os.getpid()][0] == [0]
        assert sorted(first for first, *_ in masks.values()) == [[0], [1], [2]]
        assert all(rest == [[0, 1, 2, 3]] for _, *rest in masks.values())

    @pytest.mark.parametrize("affinity", ["refused", "missing"])
    def test_a_process_that_cannot_move_stays_where_it_is(
            self, monkeypatch, no_child_left, affinity):
        if affinity == "refused":
            def refuse(pid, mask):
                raise OSError(errno.EINVAL, "Invalid argument")
            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        else:
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        payloads = list(range(6))
        assert cli._map_points(lambda i: i * i, payloads, 3) == [i * i for i in payloads]

    @pytest.fixture
    def marker(self, tmp_path):
        return tmp_path / "child"

    def test_a_point_that_raises_in_a_child_reports_the_lowest_index(
            self, tmp_path, capsys, monkeypatch, no_child_left, marker):
        # every point raises, the parent's only once a child's has: whichever
        # process took the first point, its error is the one reported
        parent = os.getpid()

        def fail(payload):
            eta_sq = payload[0].eta_sq
            if os.getpid() != parent:
                marker.write_text(f"{eta_sq:g}")
            else:
                _wait_for(marker)
            origin = "parent" if os.getpid() == parent else "child"
            raise ValueError(f"point {eta_sq:g} in {origin}")

        monkeypatch.setattr(cli, "_energy_scan_point", fail)
        (tmp_path / "run").mkdir()
        code = main(["energy-scan", "--scan-min", "1", "--scan-max", "4", "--scan-points", "4",
                     "--threads", "2", "--out", str(tmp_path / "run" / "scan.csv")])
        assert code == cli.EXIT_USAGE
        origin = "child" if marker.read_text() == "1" else "parent"
        assert capsys.readouterr().err == f"kho: error: point 1 in {origin}\n"
        assert list((tmp_path / "run").iterdir()) == []

    def test_a_killed_child_is_a_clean_error(self, tmp_path, capsys, monkeypatch,
                                             no_child_left, marker):
        parent, point = os.getpid(), cli._energy_scan_point

        def die_in_child(payload):
            if os.getpid() != parent:
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            _wait_for(marker)
            return point(payload)

        monkeypatch.setattr(cli, "_energy_scan_point", die_in_child)
        (tmp_path / "run").mkdir()
        code = main(["energy-scan", "--dim", "16", "--kicks", "3", "--scan-points", "2",
                     "--threads", "2", "--out", str(tmp_path / "run" / "scan.csv")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("kho: error: worker process ")
        assert err.endswith(f" was killed by signal {int(signal.SIGKILL)}\n")
        assert list((tmp_path / "run").iterdir()) == []

    def test_a_child_whose_parent_dies_stops(self):
        # the parent dies on its first point; its child, which prints each
        # point it runs, would otherwise run the other 199, 50 ms each.  The
        # captured output ends when the child exits too.
        script = (
            "import os, signal, time\n"
            "from kho import cli\n"
            "parent = os.getpid()\n"
            "def point(i):\n"
            "    if os.getpid() == parent:\n"
            "        os.kill(parent, signal.SIGKILL)\n"
            "    time.sleep(0.05)\n"
            "    print(i, flush=True)\n"
            "cli._map_points(point, list(range(200)), 2)\n")
        done = run_fresh(script, timeout=60)
        assert done.returncode == -signal.SIGKILL
        assert len(done.stdout.split()) <= 2


class TestSpectrum:
    def test_free_column_evenly_spaced(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--kappa", "0", "--dim", "32", "--scan-min", "pi",
                     "--scan-max", "pi", "--scan-points", "1", "--out", str(out)])
        assert code == 0
        rows = [ln.split(",") for ln in data_rows(out)[1:]]
        assert len(rows) == 32
        phis = sorted(float(r[1]) for r in rows)
        want = sorted(float(np.angle(np.exp(-1j * (n + 0.5) * math.pi / 2))) for n in range(32))
        assert np.abs(np.array(phis) - np.array(want)).max() < 1e-12

    def test_scan_shape_and_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["spectrum", "--dim", "48", "--scan-min", "0.8*pi",
                "--scan-max", "1.2*pi", "--scan-points", "3"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b), "--threads", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(data_rows(a)) == 1 + 3 * 48

    def test_runs_on_every_usable_cpu_by_default(self, tmp_path, forks, no_child_left):
        # four usable CPUs and three points: this process and two children
        argv = ["spectrum", "--dim", "16", "--scan-points", "3"]
        assert main(argv + ["--out", str(tmp_path / "default.csv")]) == cli.EXIT_OK
        assert forks == [os.getpid()] * 2
        assert main(argv + ["--threads", "1", "--out", str(tmp_path / "one.csv")]) == cli.EXIT_OK
        assert len(forks) == 2
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()


class TestBlasThreads:
    def test_spectrum_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """kho pins OpenBLAS to one thread when OPENBLAS_NUM_THREADS is unset,
        so a default run, a pinned run and a forked pool give the same bytes
        at D=500, where one and two BLAS threads would differ."""
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)  # importing kho set it in this process
        src = os.path.dirname(os.path.dirname(kho.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "kho.cli", "spectrum", "--dim", "500",
                "--scan-points", "2"]
        runs = {"default": (env, []), "pinned": (dict(env, OPENBLAS_NUM_THREADS="1"), []),
                "pool": (env, ["--threads", "2"])}
        outputs = {}
        for name, (run_env, extra) in runs.items():
            out = tmp_path / f"{name}.csv"
            subprocess.run(argv + extra + ["--out", str(out)], env=run_env, check=True,
                           capture_output=True)
            outputs[name] = out.read_bytes()
        assert outputs["default"] == outputs["pinned"]
        assert outputs["pool"] == outputs["default"]


class TestColdStart:
    def test_light_commands_import_no_scipy_linalg_special_or_constants(self, tmp_path):
        """resonances, a spectrum and an energy-scan on every usable CPU
        (the default, which forks their workers on a multi-core host), evolve
        and qfunc use neither Bessel functions, SI constants, a process pool
        nor the scipy.linalg package, so none of those modules loads, nor
        scipy's array-API layer: each would add to every cold start.  Only
        verify loads kho.verify and kho.lattice."""
        runs = [["resonances"], ["spectrum", "--dim", "8", "--scan-points", "2"],
                ["energy-scan", "--dim", "16", "--scan-points", "2", "--kicks", "3"],
                ["evolve", "--dim", "16", "--kicks", "2"],
                ["qfunc", "--eta2", "pi", "--dim", "16", "--kicks", "2", "--res", "5"]]
        argvs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
        script = (
            "import sys\n"
            "from kho.cli import main\n"
            f"assert all(main(argv) in (0, 2) for argv in {argvs!r})\n"
            "print(sorted(m for m in ('scipy.linalg', 'scipy._lib._array_api', 'scipy.special', "
            "'scipy.constants', 'multiprocessing', 'concurrent.futures.process', 'queue', "
            "'kho.verify', 'kho.lattice') "
            "if m in sys.modules))\n")
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_numeric_commands_load_no_scipy_module(self, tmp_path, numpy_openblas):
        """evolve, qfunc, spectrum and energy-scan call LAPACK in numpy's own
        OpenBLAS, and verify computes its Bessel tables and log-factorials in
        kho.specfun, so no module of the scipy package loads."""
        runs = [["spectrum", "--dim", "8", "--scan-points", "2"],
                ["energy-scan", "--dim", "16", "--scan-points", "2", "--kicks", "3"],
                ["evolve", "--dim", "16", "--alpha=0.3-0.2j", "--kicks", "2"],
                ["qfunc", "--eta2", "pi", "--dim", "16", "--kicks", "2", "--res", "5"]]
        argvs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
        argvs.append(["verify", "--verify-level", "quick"])
        script = (
            "import contextlib, io, sys\n"
            "from kho.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert all(main(argv) in (0, 2) for argv in {argvs!r})\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_spectrum_maps_one_openblas_numpys(self, tmp_path, numpy_openblas):
        """After a spectrum run the process maps one OpenBLAS file, numpy's:
        its matrix products and LAPACK calls run in the same library."""
        argv = ["spectrum", "--dim", "16", "--scan-points", "2", "--out", str(tmp_path / "s")]
        script = (
            "import os\n"
            "from kho.cli import main\n"
            f"assert main({argv!r}) in (0, 2)\n"
            "with open('/proc/self/maps') as fh:\n"
            "    paths = {os.path.realpath(ln.split(maxsplit=5)[-1].strip()) for ln in fh}\n"
            "print(*sorted(p for p in paths if 'openblas' in os.path.basename(p).lower()),\n"
            "      sep='\\n')\n")
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr
        mapped = done.stdout.splitlines()
        assert len(mapped) == 1 and mapped[0] in {os.path.realpath(p) for p in numpy_openblas}

    @pytest.mark.parametrize("argv", [
        ["energy-scan", "--dim", "16", "--kicks", "2", "--scan-points", "2", "--threads", "2",
         "--out", "{tmp}/scan.csv"],
        ["spectrum", "--dim", "16", "--scan-points", "2", "--threads", "2",
         "--out", "{tmp}/scan.csv"],
        ["verify", "--verify-level", "quick"]])
    def test_a_forked_scan_imports_the_numerics_once(self, tmp_path, argv):
        """The handler imports kho.fock, and verify kho.verify and
        kho.lattice, before its workers fork, so no worker imports them
        again: -X importtime lists each once, not once per process.  verify
        runs on four processes here, whatever the host's CPUs."""
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        script = (
            "import sys\n"
            "from kho import cli\n"
            "cli._usable_cpus = lambda: 4\n"
            f"sys.exit(cli.main({argv!r}))\n")
        done = run_fresh(script, flags=("-X", "importtime"))
        assert done.returncode in (0, cli.EXIT_TRUNCATION), done.stderr
        imports = [ln.rpartition("|")[2].strip() for ln in done.stderr.splitlines()
                   if ln.startswith("import time:")]
        numerics = ("kho.fock", "kho.verify", "kho.lattice") if argv[0] == "verify" else (
            "kho.fock",)
        assert [imports.count(name) for name in numerics] == [1] * len(numerics)

    def test_resonances_help_and_usage_errors_load_no_numerics(self, tmp_path):
        """The resonance table is plain arithmetic in kho.model, and --help and
        a usage error end in argparse: none of them loads numpy, scipy or a
        numeric kho module.  `resonances --out` writes through kho.output,
        which imports no numpy either."""
        out = str(tmp_path / "r.json")
        script = (
            "import contextlib, io, sys\n"
            "from kho.cli import main\n"
            "codes = []\n"
            "for argv in (['resonances'], ['--help'], ['spectrum', '--dim', '0'],\n"
            f"             ['resonances', '--out', {out!r}]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            codes.append(main(argv))\n"
            "        except SystemExit as exc:\n"
            "            codes.append(exc.code)\n"
            "print(codes)\n"
            "print(sorted(m for m in ('numpy', 'scipy', 'kho.fock', 'kho.specfun', "
            "'kho._lapack', 'kho.output') if m in sys.modules))\n")
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[0, 0, 1, 0]", "['kho.output']"]

    def test_cli_import_pins_blas_threads_before_numpy(self):
        """numpy's first import comes in a handler, after kho's pin."""
        script = (
            "import os, sys\n"
            "os.environ.pop('OPENBLAS_NUM_THREADS', None)\n"
            "import kho.cli\n"
            "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))\n")
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["False", "1"]

    def test_verify_loads_no_numpy_random(self):
        """The Graf check draws from the standard library's generator:
        numpy.random would load secrets and, through it, hashlib's OpenSSL
        extension and libcrypto, into every verify run."""
        script = (
            "import contextlib, io, sys\n"
            "from kho.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['verify', '--verify-level', 'full']) == 0\n"
            "print(sorted(m for m in ('numpy.random', 'secrets', '_hashlib') "
            "if m in sys.modules))\n")
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


class TestResonances:
    def test_table_contents(self, tmp_path):
        out = tmp_path / "res.json"
        assert main(["resonances", "--out", str(out)]) == 0
        table = json.loads(out.read_text())
        assert set(table) == {"3", "4", "5", "6", "7", "8"}
        assert table["3"]["z_values"] == pytest.approx([math.sqrt(3) / 2])
        assert table["3"]["principal"] == pytest.approx(2 * math.pi / math.sqrt(3))
        assert table["4"]["z_values"] == pytest.approx([1.0])
        assert table["4"]["principal"] == pytest.approx(math.pi)
        assert table["5"]["principal"] is None
        assert len(table["5"]["z_values"]) == 2
        assert table["6"]["principal"] == pytest.approx(2 * math.pi / math.sqrt(3))

    def test_stdout_mode(self, capsys):
        assert main(["resonances", "--q-min", "4", "--q-max", "4"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["4"]["kind"] == "resonant"

    def test_q_min_zero_is_usage_error(self, capsys):
        assert main(["resonances", "--q-min", "0"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "kho: error: q must be a positive integer"


class TestVerify:
    #: the names of the checks both levels run first, in their order
    LEADING = [
        "resonant-value table q=1..8",
        "Graf closure (100 random triples + alpha=pi)",
        "q-axis product vs F^q (D=128, full matrix)",
        "kick spectral vs displacement expansion (D=256, block=64)",
        "lattice mapping vs closed form (q=4, N=2..8)",
        "resonant phase pattern (-1)^{mn} i^{m+n}",
        "q=6 three-step cycle vs stepped mapping",
    ]

    def test_quick_passes(self, capsys):
        assert main(["verify", "--verify-level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.splitlines()[-1] == "15/15 checks passed"

    def test_quick_level_runs_every_check(self):
        names = [
            *self.LEADING,
            "fock/lattice fidelity q=4 eta2=principal N=12 (D=256)",
            "amplified kick q=4 v=2 vs F^(qv) (D=128, block=10)",
            *(f"[F^q, D(gamma)] q={q} eta2={tag} (D=256)"
              for q in (3, 4, 6) for tag in ("principal", "phi*pi")),
        ]
        checks = verify.run("quick")
        assert [c.name for c in checks] == names
        assert all(c.passed and not c.note for c in checks), [c.line() for c in checks]

    def test_full_level_runs_every_check(self):
        names = [
            *self.LEADING,
            *(f"fock/lattice fidelity q={q} eta2={tag} N=12 (D=256)"
              for q in (3, 4, 6) for tag in ("principal", "phi*pi")),
            "amplified kick q=4 v=2 vs F^(qv) (D=256, block=64)",
            "amplified kick q=4 v=3 vs F^(qv) (D=256, block=64)",
            "amplified kick q=3 v=2 vs F^(qv) (D=256, block=64)",
            *(f"[F^q, D(gamma)] q={q} eta2={tag} (D=512)"
              for q in (3, 4, 6) for tag in ("principal", "phi*pi")),
        ]
        checks = verify.run("full")
        assert [c.name for c in checks] == names
        assert all(c.passed for c in checks), [c.line() for c in checks if not c.passed]

    def test_lines_print_each_tolerance_exactly(self):
        # each bound reads back as itself: the fidelity bound 0.999, not 1.0e+00
        checks = verify.run("full")
        tols = [float(c.line().partition(" tol=")[2].split()[0]) for c in checks]
        assert tols == [c.tol for c in checks]
        assert 0.999 in tols

    def test_line_prints_milliseconds(self):
        check = verify.CheckResult(name="x", passed=True, measured=0.5, tol=1.0,
                                   seconds=0.0123)
        assert check.line() == "PASS  x: measured=5.000e-01 tol=1.0 (0.012s)"

    @pytest.mark.parametrize("level, calls", [("quick", 5), ("full", 7)])
    def test_each_quadrature_is_diagonalized_once(self, eigh_calls, level, calls):
        # quick: (pi, 128), (pi, 256), (pi, 512), (2pi/sqrt3, 256), (phi*pi, 256);
        # full: the three eta^2 at D=256 and 512, and (pi, 128).  Each check
        # measures inside the shared block bitwise what it measures alone.
        checks = verify.run(level)
        assert len(eigh_calls) == calls
        assert fock._SHARED_QUADRATURES.get() is None
        assert all(c.seconds > 0 for c in checks)  # run() times each check
        if level == "quick":
            return
        alone = []  # each check of the schedule, outside any shared block
        for _, check in verify._schedule("full"):
            res = check()
            alone += res if isinstance(res, tuple) else [res]
        assert len(eigh_calls) > 2 * calls  # the checks alone share nothing
        assert {c.seconds for c in alone} == {0.0}  # timed by run() only
        assert [(c.name, c.measured) for c in checks] == [(c.name, c.measured) for c in alone]

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_each_block_holds_the_spectra_of_one_eta2(self, monkeypatch, level):
        # every quadrature is diagonalized inside a shared_quadratures()
        # block, and each of the three eta^2 has a block of its own
        blocks = []
        quadrature = fock._quadrature

        def spy(eta, dim):
            spectrum = quadrature(eta, dim)
            held = fock._SHARED_QUADRATURES.get()
            if not any(block is held for block in blocks):
                blocks.append(held)
            return spectrum

        monkeypatch.setattr(fock, "_quadrature", spy)
        assert all(c.passed for c in verify.run(level))
        assert None not in blocks
        etas = [{eta for eta, _ in block} for block in blocks]
        assert [len(e) for e in etas] == [1, 1, 1]
        eta2s = (math.pi, 2 * math.pi / math.sqrt(3), model.GOLDEN_RATIO * math.pi)
        assert set().union(*etas) == {math.sqrt(x) for x in eta2s}

    @staticmethod
    def untimed(text):
        """text without each line's (N.NNNs) timing."""
        return re.sub(r" \([0-9.]+s\)", "", text)

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_forked_lines_match_one_process(self, capsys, forks, no_child_left, level):
        # each eta^2 group on a process of its own: the lines of one process
        assert main(["verify", "--verify-level", level]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert forks == [os.getpid()] * 3
        checks = verify.run(level)
        assert len(forks) == 3  # in-process run() forks nothing
        assert self.untimed(out) == self.untimed("".join(
            c.line() + "\n" for c in checks) + f"{len(checks)}/{len(checks)} checks passed\n")

    def test_one_usable_cpu_forks_nothing(self, capsys, monkeypatch, no_child_left):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", _no_fork)
        assert main(["verify", "--verify-level", "quick"]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "15/15 checks passed"

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_a_check_that_raises_ends_a_forked_run_as_one_process(
            self, capsys, monkeypatch, forks, no_child_left, level):
        # every commutator check raises, in each eta^2 group and process: the
        # forked run reports the error one process meets first
        def fail(tag, params, dim):
            raise ValueError(f"commutator q={params.q} eta2={tag}")

        monkeypatch.setattr(verify, "_commutator_case", fail)
        assert main(["verify", "--verify-level", level]) == cli.EXIT_USAGE
        forked = capsys.readouterr()
        assert len(forks) == 3
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        assert main(["verify", "--verify-level", level]) == cli.EXIT_USAGE
        assert len(forks) == 3
        first = "q=4 eta2=principal" if level == "quick" else "q=3 eta2=phi*pi"
        assert forked == capsys.readouterr() == ("", f"kho: error: commutator {first}\n")

    def test_skewed_zeta_fails_cross_representation(self, capsys, monkeypatch):
        # a lattice route 5% off in zeta must fail the fidelity check
        from_params = lattice.from_params
        monkeypatch.setattr(lattice, "from_params", lambda alpha, params: from_params(
            alpha, dataclasses.replace(params, kappa=1.05 * params.kappa)))
        assert main(["verify", "--verify-level", "quick"]) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        assert any("FAIL" in ln and "fidelity" in ln for ln in out.splitlines())


class ReadRecorder(argparse.Namespace):
    """A Namespace that records the name of each attribute read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


# one tiny run of each subcommand, its --out appended
TINY_RUNS = {
    "evolve": ["--dim", "8", "--kicks", "1", "--state-out", "{tmp}/s.json"],
    "qfunc": ["--eta2", "pi", "--dim", "8", "--kicks", "1", "--res", "3", "--window", "2"],
    "energy-scan": ["--dim", "8", "--kicks", "2", "--scan-points", "2"],
    "spectrum": ["--dim", "8", "--scan-points", "2"],
    "resonances": ["--q-min", "4", "--q-max", "4"],
    "verify": [],
}


class TestFlagsRead:
    def test_every_subcommand_has_a_tiny_run(self):
        assert sorted(TINY_RUNS) == sorted(cli._HANDLERS)

    @pytest.mark.parametrize("command", sorted(TINY_RUNS))
    def test_handler_reads_every_flag_it_defines(self, tmp_path, capsys, command):
        """A flag the handler never reads is accepted and ignored."""
        argv = [command, *(arg.format(tmp=tmp_path) for arg in TINY_RUNS[command])]
        if command != "verify":
            argv += ["--out", str(tmp_path / "out")]
        args = cli.build_parser().parse_args(argv, namespace=ReadRecorder())
        args._reads.clear()  # argparse reads its defaults while parsing
        assert cli._HANDLERS[command](args) in (cli.EXIT_OK, cli.EXIT_TRUNCATION)
        defined = {dest for dest in vars(args) if not dest.startswith("_")} - {"command"}
        assert defined - args._reads == set()


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == cli.EXIT_USAGE

    def test_bad_eta2_is_usage_error(self, tmp_path):
        code = main(["evolve", "--eta2", "bogus", "--out", str(tmp_path / "x.csv")])
        assert code == cli.EXIT_USAGE

    def test_bad_window(self):
        with pytest.raises(SystemExit) as exc:
            main(["qfunc", "--eta2", "pi", "--window", "1,2,3"])
        assert exc.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["evolve", "--eta2", "pi/0"],
        ["evolve", "--eta2", "nan"],
        ["evolve", "--eta2", "inf"],
        ["evolve", "--eta2", "-1"],
        ["evolve", "--kappa", "nan"],
        ["evolve", "--kappa", "inf"],
        ["evolve", "--kicks", "-1"],
        ["evolve", "--dim", "0"],
        ["qfunc", "--eta2", "pi", "--res", "1"],
        ["qfunc", "--eta2", "pi", "--res", "5,1"],
        ["spectrum", "--scan-points", "0"],
        ["energy-scan", "--scan-points", "0"],
        ["energy-scan", "--threads", "0"],
        ["spectrum", "--threads", "0"],
        ["spectrum", "--scan-min", "1e308*10"],
        ["energy-scan", "--scan-max=-pi"],
        ["evolve", "--alpha", "nan"],
        ["evolve", "--alpha", "inf+1j"],
        ["qfunc", "--eta2", "pi", "--alpha", "nanj"],
        ["qfunc", "--eta2", "pi", "--window", "nan"],
        ["qfunc", "--eta2", "pi", "--window", "1,2,inf,3"],
        ["qfunc", "--eta2", "pi", "--window", "3,1,0,2"],
        ["qfunc", "--eta2", "pi", "--window", "0"],
        ["evolve", "--alpha", "50", "--dim", "6"],
        ["qfunc", "--eta2", "pi", "--dim", "6", "--window", "1e100"],
        ["qfunc", "--dim", "1", "--kicks", "0", "--res", "2", "--window", "1e308",
         "--eta2", "pi"],
        ["qfunc", "--eta2", "pi", "--window", "-1.5e308,1.5e308,-1,1"],
        ["evolve", "--eta2", "1e-320", "--dim", "4", "--kicks", "1"],
        ["qfunc", "--eta2", "1e-320", "--dim", "4", "--kicks", "1", "--res", "3"],
        ["evolve", "--kappa", "1e300", "--eta2", "1e-10", "--dim", "4", "--kicks", "1"],
        ["energy-scan", "--scan-min", "1e-320", "--scan-max", "1e-319"],
        ["spectrum", "--scan-min", "1e-320", "--scan-max", "1e-319"],
        ["energy-scan", "--eta2", "pi"],  # a scan takes eta^2 from --scan-min/--scan-max
        ["spectrum", "--eta2", "pi"],
        ["qfunc", "--kicks", "5"],  # the default panel set runs its own kick counts
        ["evolve", "--kicks=--"],  # argparse reads "--" as [], past the type
        ["evolve", "--eta2=--"],
        ["qfunc", "--eta2=--", "--dim", "4"],
        ["spectrum", "--scan-min=--"],
        ["resonances", "--q-min", "5", "--q-max", "3"],  # an empty range
        ["qfunc", "--eta2", "pi", "--res", "2.5"],
        ["qfunc", "--eta2", "pi", "--window", "abc"],
        ["qfunc", "--eta2", "pi", "--res", "3,3,3"],  # res takes one or two counts
    ])
    def test_bad_input_is_clean_usage_error(self, tmp_path, capsys, argv):
        # an uncaught exception, or a numpy warning raised as one, would
        # propagate here and fail the test
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([*argv, "--out", str(tmp_path / "out.csv")])
        except SystemExit as exc:
            code = exc.code
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "kho: error:" in err
        assert "Traceback" not in err
        assert "invalid _" not in err  # a value's type is named, not its private parser

    @pytest.mark.parametrize("argv, kernel, message", [
        (["evolve", "--dim", "32", "--kicks", "1"], (_lapack, "eigh_tridiagonal"),
         "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"),
        (["qfunc", "--eta2", "pi", "--dim", "32", "--kicks", "1", "--res", "8"],
         (fock, "q_functions"), ""),
    ], ids=["evolve-eigensolve", "qfunc-grid"])
    def test_allocation_failure_is_clean_error(self, tmp_path, capsys, monkeypatch,
                                               argv, kernel, message):
        # a basis or grid too big for memory: the kernel raises, never allocates
        def fail(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(*kernel, fail)
        code = main([*argv, "--out", str(tmp_path / "out.csv")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"kho: error: {message or 'MemoryError'}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["evolve", "--dim", "32", "--kicks", "1", "--out", "{missing}/x.csv"],
        ["evolve", "--dim", "32", "--kicks", "1", "--out", "{tmp}/x.csv",
         "--state-out", "{missing}/s.json"],
        ["resonances", "--out", "{missing}/r.json"],
        ["qfunc", "--dim", "32", "--out", "{file}"],  # panel mode needs a directory
        ["evolve", "--dim", "32", "--kicks", "1", "--out", "{missing}/x.csv",
         "--state-out", "{tmp}/s.json"],
        ["qfunc", "--alpha", "50", "--dim", "6", "--out", "{tmp}/panels"],  # a failed panel run
        # an empty path names no file: it fails, never falls back to stdout or to no file
        ["resonances", "--out", ""],
        ["evolve", "--dim", "32", "--kicks", "1", "--out", "{tmp}/x.csv", "--state-out", ""],
    ])
    def test_unwritable_output_is_clean_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)  # a relative path resolves inside tmp_path
        (tmp_path / "file").write_text("")
        paths = {"missing": tmp_path / "missing", "tmp": tmp_path, "file": tmp_path / "file"}
        code = main([arg.format(**paths) for arg in argv])
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert "kho: error:" in captured.err
        assert captured.out == ""
        # a failed run writes nothing: no trace beside a state it could not write
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_failed_panel_set_removes_the_panels_it_wrote(self, tmp_path, capsys):
        # the phi*pi N=36 panel cannot be written, after both pi panels were:
        # those two go, and the directory, which the run did not make, stays
        outdir = tmp_path / "panels"
        (outdir / "qfunc_eta2-phipi_N36.csv").mkdir(parents=True)
        code = main(["qfunc", "--dim", "16", "--res", "3", "--window", "2",
                     "--out", str(outdir)])
        assert code == cli.EXIT_USAGE
        assert "kho: error:" in capsys.readouterr().err
        assert [p.name for p in outdir.iterdir()] == ["qfunc_eta2-phipi_N36.csv"]

    def test_failed_panel_set_removes_the_directories_it_made(self, tmp_path, monkeypatch):
        written = []
        write_qgrid = output.write_qgrid

        def fail_third(path, *args):
            if len(written) == 2:
                raise OSError("No space left on device")
            write_qgrid(path, *args)
            written.append(path)

        monkeypatch.setattr(output, "write_qgrid", fail_third)
        code = main(["qfunc", "--dim", "16", "--res", "3", "--window", "2",
                     "--out", str(tmp_path / "new" / "panels")])
        assert code == cli.EXIT_USAGE
        assert len(written) == 2
        assert list(tmp_path.iterdir()) == []


class _FullDiskFile:
    """A file that keeps the first 10 characters written to it, then fails as
    a full disk does."""

    def __init__(self, fh):
        self._fh = fh
        self.fileno = fh.fileno

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[:10])
        self._fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# small runs that print nothing to stderr when they succeed
QUIET = ["--dim", "32", "--kappa", "-0.01"]
QUIET_GRID = [*QUIET, "--res", "25", "--window", "6"]


class TestFailedRunLeavesNothing:
    @pytest.mark.parametrize("argv, fail_at", [
        (["evolve", *QUIET, "--kicks", "2", "--state-out", "{tmp}/s.json",
          "--out", "{tmp}/e.csv"], 1),
        (["evolve", *QUIET, "--kicks", "2", "--state-out", "{tmp}/s.json",
          "--out", "{tmp}/e.csv"], 0),
        (["qfunc", "--eta2", "pi", *QUIET_GRID, "--kicks", "2", "--out", "{tmp}/q.csv"], 0),
        (["qfunc", *QUIET_GRID, "--out", "{tmp}/out/panels"], 2),
        (["energy-scan", *QUIET, "--scan-points", "2", "--kicks", "3",
          "--out", "{tmp}/scan.csv"], 0),
        (["spectrum", "--dim", "16", "--scan-points", "2", "--out", "{tmp}/spectrum.csv"], 0),
        (["resonances", "--out", "{tmp}/r.json"], 0),
    ], ids=["evolve-trace", "evolve-state-out", "qfunc-single", "qfunc-third-panel",
            "energy-scan", "spectrum", "resonances"])
    def test_disk_full_removes_what_the_run_wrote(self, tmp_path, capsys, monkeypatch,
                                                  argv, fail_at):
        # the file opened fail_at-th (from 0) takes a prefix, then the disk is full:
        # the run ends in the ENOSPC error and removes every file and
        # directory it made, the part-written file too
        opened = []

        def full_disk_open(path, mode="r"):
            fh = open(path, mode)
            opened.append(path)
            return _FullDiskFile(fh) if len(opened) > fail_at else fh

        monkeypatch.setattr(output, "open", full_disk_open, raising=False)
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        assert len(opened) == fail_at + 1
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"kho: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
        assert list(tmp_path.iterdir()) == []

    def test_a_failed_run_keeps_the_file_it_would_replace(self, tmp_path, capsys):
        keep = tmp_path / "keep.json"
        keep.write_text("old\n")
        code = main(["evolve", "--dim", "8", "--kicks", "1", "--state-out", str(keep),
                     "--out", str(tmp_path / "nod" / "x.csv")])
        assert code == cli.EXIT_USAGE
        assert "kho: error:" in capsys.readouterr().err
        assert keep.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["keep.json"]

    def test_a_replaced_file_keeps_its_mode_and_a_symlink_stays_one(self, tmp_path):
        kept = tmp_path / "kept.json"
        kept.write_text("old\n")
        kept.chmod(0o600)
        link = tmp_path / "link.json"
        link.symlink_to(kept.name)
        with output.all_or_nothing():  # the old file moved aside goes at the end
            output._write(str(kept), "new\n")
        output._write(str(link), "new\n")
        assert kept.read_text() == "new\n" and kept.stat().st_mode & 0o777 == 0o600
        assert link.is_symlink() and sorted(p.name for p in tmp_path.iterdir()) == [
            "kept.json", "link.json"]

    def test_a_path_that_is_not_a_regular_file_is_never_removed(self, tmp_path, capsys,
                                                               monkeypatch):
        # the state goes to the null device, then the trace cannot be written;
        # removals are recorded, never made, as the suite may run as root
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        monkeypatch.setattr(os, "rmdir", removed.append)
        code = main(["evolve", *QUIET, "--kicks", "1", "--state-out", os.devnull,
                     "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == cli.EXIT_USAGE
        assert "kho: error:" in capsys.readouterr().err
        assert os.devnull not in removed

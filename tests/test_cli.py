import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import kho
from kho import _lapack, cli, fock, lattice, model, verify
from kho.cli import main


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def data_rows(path):
    return [ln for ln in read_lines(path) if not ln.startswith("#")]


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """script run in a fresh interpreter that imports this kho."""
    src = os.path.dirname(os.path.dirname(kho.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)


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

    def test_threads_match_serial(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["energy-scan", "--scan-min", "0.9*pi", "--scan-max", "1.1*pi",
                "--scan-points", "3", "--dim", "128", "--kicks", "150"]
        assert main(argv + ["--out", str(a), "--threads", "1"]) in (0, 2)
        assert main(argv + ["--out", str(b), "--threads", "2"]) in (0, 2)
        assert a.read_bytes() == b.read_bytes()


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
        """resonances and serial spectrum, energy-scan, evolve and qfunc runs
        use neither Bessel functions, SI constants, a process pool nor the
        scipy.linalg package, so none of those modules loads, nor scipy's
        array-API layer: each would add to every cold start.  Only verify loads kho.verify and kho.lattice."""
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
        OpenBLAS, so no module of the scipy package loads."""
        runs = [["spectrum", "--dim", "8", "--scan-points", "2"],
                ["energy-scan", "--dim", "16", "--scan-points", "2", "--kicks", "3"],
                ["evolve", "--dim", "16", "--alpha=0.3-0.2j", "--kicks", "2"],
                ["qfunc", "--eta2", "pi", "--dim", "16", "--kicks", "2", "--res", "5"]]
        argvs = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(runs)]
        script = (
            "import sys\n"
            "from kho.cli import main\n"
            f"assert all(main(argv) in (0, 2) for argv in {argvs!r})\n"
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

    def test_resonances_help_and_usage_errors_load_no_numerics(self):
        """The resonance table is plain arithmetic in kho.model, and --help and
        a usage error end in argparse: none of them loads numpy, scipy or a
        numeric kho module."""
        script = (
            "import contextlib, io, sys\n"
            "from kho.cli import main\n"
            "codes = []\n"
            "for argv in (['resonances'], ['--help'], ['spectrum', '--dim', '0']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        try:\n"
            "            codes.append(main(argv))\n"
            "        except SystemExit as exc:\n"
            "            codes.append(exc.code)\n"
            "print(codes)\n"
            "print(sorted(m for m in ('numpy', 'scipy', 'kho.fock', 'kho.specfun', "
            "'kho._lapack') if m in sys.modules))\n")
        done = run_fresh(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines() == ["[0, 0, 1]", "[]"]

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


class TestVerify:
    def test_quick_passes(self, capsys):
        assert main(["verify", "--verify-level", "quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_full_level_runs_every_check(self):
        names = [
            "resonant-value table q=1..8",
            "Graf closure (100 random triples + alpha=pi)",
            "q-axis product vs F^q (D=128, full matrix)",
            "kick spectral vs displacement expansion (D=256, block=64)",
            "lattice mapping vs closed form (q=4, N=2..8)",
            "resonant phase pattern (-1)^{mn} i^{m+n}",
            "lattice state JSON roundtrip",
            "q=6 three-step cycle vs stepped mapping",
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
        alone = [verify.check_resonant_table(), verify.check_graf_closure(),
                 verify.check_axis_product(), verify.check_kick_expansion(),
                 *verify.check_q4_closed_form(), verify.check_state_roundtrip(),
                 verify.check_q6_cycle(), *verify.check_cross_representation(),
                 *verify.check_amplified(), *verify.check_commutators()]
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

    def test_skewed_zeta_fails_cross_representation(self, capsys, monkeypatch):
        # a lattice route 5% off in zeta must fail the fidelity check
        from_params = lattice.from_params
        monkeypatch.setattr(lattice, "from_params", lambda alpha, params: from_params(
            alpha, dataclasses.replace(params, kappa=1.05 * params.kappa)))
        assert main(["verify", "--verify-level", "quick"]) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        assert any("FAIL" in ln and "fidelity" in ln for ln in out.splitlines())


    @pytest.mark.parametrize("lost", [{"alpha": 0j}, {"j": 0},
                                      {"params": verify.Q4}])
    def test_roundtrip_check_sees_more_than_coefficients(self, monkeypatch, lost):
        from_json = lattice.from_json
        monkeypatch.setattr(lattice, "from_json",
                            lambda text: dataclasses.replace(from_json(text), **lost))
        assert not verify.check_state_roundtrip().passed


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
    ])
    def test_unwritable_output_is_clean_usage_error(self, tmp_path, capsys, argv):
        (tmp_path / "file").write_text("")
        paths = {"missing": tmp_path / "missing", "tmp": tmp_path, "file": tmp_path / "file"}
        code = main([arg.format(**paths) for arg in argv])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "kho: error:" in err
        # a failed run writes nothing: no trace beside a state it could not write
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

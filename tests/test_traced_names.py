"""The names the benchmark's traced mode binds.

perfbench/spans.py wraps kho's functions by name and reads their arguments
and results by name.  A rename there does not fail a CLI run; it fails, or
silently zeroes a counter, only in a traced benchmark run.  This runs each
subcommand the benchmark replays, at a tiny size, under that tracer, and
checks that each hook's counter fires.
"""

import sys
from pathlib import Path

from kho import cli, fock, specfun

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_traced_replay_fires_every_counter(tmp_path, capsys, monkeypatch):
    tracer = spans.Tracer()
    counters = tracer.counters
    tracer.install("tier1")
    try:
        # evolve(n_kicks) with the state's .dim, and write_csv(path)
        assert cli.main(["evolve", "--dim", "64", "--kicks", "3",
                         "--out", str(tmp_path / "evolve.csv")]) == cli.EXIT_OK
        assert counters["fock.kicks"] == 3
        assert counters["fock.kick_bytes_computed"] == 3 * 16 * 64 * 64
        assert counters["output.bytes"] == (tmp_path / "evolve.csv").stat().st_size

        # kicks_to_energy(dim), through cli._map_points and cli._energy_scan_point
        # in this process, where the counters are: a forked worker's do not return
        cli.main(["energy-scan", "--dim", "32", "--kicks", "4", "--scan-points", "2",
                  "--threads", "1", "--out", str(tmp_path / "scan.csv")])
        assert counters["fock.kicks"] > 3

        # SpectrumResult.n_discarded, through cli._spectrum_point in this process
        assert cli.main(["spectrum", "--dim", "32", "--scan-points", "2", "--threads", "1",
                         "--out", str(tmp_path / "spectrum.csv")]) == cli.EXIT_OK
        assert "fock.quasienergy_spectrum.n_discarded" in counters

        # write_qgrid(path)
        written = counters["output.bytes"]
        cli.main(["qfunc", "--eta2", "pi", "--dim", "32", "--kicks", "2", "--res", "5",
                  "--out", str(tmp_path / "q.csv")])
        assert counters["output.bytes"] == written + (tmp_path / "q.csv").stat().st_size

        # lattice.step(state), on one process, where the counters are
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        assert cli.main(["verify"]) == cli.EXIT_OK
        assert counters["lattice.step.coeffs"] > 0

        # doubling_rule(observable): the verify above called it too
        evals = counters["fock.doubling_rule.evals"]
        fock.doubling_rule(lambda dim: 1.0)
        assert counters["fock.doubling_rule.evals"] == evals + 2
    finally:
        tracer.uninstall()
    calls = tracer.calls()
    for name in ("cli._map_points", "cli._energy_scan_point", "cli._spectrum_point",
                 "fock.kicks_to_energy", "fock.quasienergy_spectrum", "output.write_qgrid"):
        assert calls[name] > 0, name
    # the replay clears these caches and reads the Bessel table's hit counts
    for cache in (specfun._cached_table, specfun.k_cutoff):
        assert callable(cache.cache_clear) and cache.cache_info().currsize >= 0
    assert fock.evolve.__name__ == "evolve" and not hasattr(fock.evolve, "__wrapped__")


def test_traced_pool_replay_times_map_points(tmp_path):
    # the benchmark's pool efficiency divides the serial workers' time by the
    # traced time of cli._map_points around a two-worker pool
    tracer = spans.Tracer()
    tracer.install("tier1-pool")
    try:
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"scan{threads}.csv"
            cli.main(["energy-scan", "--dim", "32", "--kicks", "4", "--scan-points", "2",
                      "--threads", str(threads), "--out", str(out)])
            outputs.append(out.read_bytes())
    finally:
        tracer.uninstall()
    assert len(tracer.durations("cli._map_points")) == 2
    assert outputs[0] == outputs[1]

"""Every bad invocation of the CLI: exit status 2 and its exact message.

Each case runs ``main`` in-process in a scratch directory with neither
``$REPRO_STORE`` nor ``$REPRO_SERVICE`` set; ``{tmp}`` in an argument or
a message stands for that directory.
"""

from __future__ import annotations

import pytest

from repro.experiments import cli

UNKNOWN_EXPERIMENT = (
    "unknown experiment 'fig99'; available: table1, fig1, fig2, fig3, fig9, "
    "fig10, fig10int, fig11, fig12, fig13, fig14, sampling, contention, "
    "ablation-timer, ablation-llib, ablation-predictor, ablation-runahead"
)
UNKNOWN_PRESET = (
    "unknown sweep preset 'fig99'; available: ablation-llib, "
    "ablation-predictor, ablation-runahead, ablation-timer, chase, "
    "contention, fig1, fig10, fig10int, fig11, fig12, fig13, fig14, fig2, "
    "fig3, fig9"
)
NO_SPOOL = (
    "no service directory configured; pass --service DIR or set $REPRO_SERVICE"
)
SPOOL = ["--service", "{tmp}/svc"]


def unknown_kind(name):
    return (
        f"unknown machine kind {name!r}; registered kinds: dkip, dual, kilo, "
        "limit, ooo-bp, r10, runahead; or use a preset name (see 'machines')"
    )


def needs_machines(command):
    return (
        f"{command} needs --machines SPECS, a preset name, or a scenario "
        "file; see 'dkip-experiments machines' for the grammar"
    )


CASES = [
    (["fig99"], UNKNOWN_EXPERIMENT),
    (["table1", "fig99", "--scale", "quick", "--no-store"], UNKNOWN_EXPERIMENT),
    (["cache", "stats"],
     "no result store configured; pass --store DIR or set $REPRO_STORE"),
    (["cache", "frobnicate"],
     "unknown cache command 'frobnicate'; expected stats, prune or verify"),
    (["sweep"], needs_machines("sweep")),
    (["sweep", "--machines", "warp-drive"], unknown_kind("warp-drive")),
    (["sweep", "fig99"], UNKNOWN_PRESET),
    (["sweep", "{tmp}/missing.toml"],
     "[Errno 2] No such file or directory: '{tmp}/missing.toml'"),
    (["sweep", "--machines", "r10", "--axes", "bogus"],
     "malformed --axes 'bogus'; expected KEY=V1,V2,..."),
    (["sweep", "--machines", "r10", "--cell-timeout", "0"],
     "--cell-timeout must be positive, got 0.0"),
    (["sweep", "--machines", "r10", "--retries", "-1"],
     "--retries must be >= 0, got -1"),
    (["simpoint"],
     "usage: dkip-experiments simpoint TRACE[.gz] [--capture WORKLOAD] "
     "[--instructions N] [--interval N] [--k K] [--phase-seed S] "
     "[--spec-out FILE] [--machines SPECS]"),
    (["simpoint", "{tmp}/missing.trc"],
     "{tmp}/missing.trc: trace file does not exist"),
    (["profile"],
     "usage: dkip-experiments profile MACHINE WORKLOAD [MEMORY] "
     "[--instructions N] [--profile-out FILE] [--sort KEY]"),
    (["profile", "warp", "mcf"], unknown_kind("warp")),
    (["profile", "r10", "nosuch"],
     "unknown workload 'nosuch'; expected BENCH-NAME (e.g. mcf, swim) or "
     "KIND(key=value,...) — see 'dkip-experiments workloads' for kinds and "
     "their parameters (kinds: bench, phases, synth, trace; benchmarks: "
     "bzip2, crafty, eon, gap, gcc, gzip, mcf, parser, perlbmk, twolf, "
     "vortex, vpr, ammp, applu, apsi, art, equake, facerec, fma3d, galgel, "
     "lucas, mesa, mgrid, sixtrack, swim, wupwise)"),
    (["serve"], NO_SPOOL),
    (["submit"], NO_SPOOL),
    (["status"], NO_SPOOL),
    (["results"], NO_SPOOL),
    (["submit", *SPOOL], needs_machines("submit")),
    (["submit", "fig99", *SPOOL], UNKNOWN_PRESET),
    (["submit", "{tmp}/missing.json", *SPOOL],
     "[Errno 2] No such file or directory: '{tmp}/missing.json'"),
    (["status", "nope", *SPOOL], "no unique job matches 'nope'"),
    (["results", *SPOOL],
     "usage: dkip-experiments results JOBID [--service DIR]; see "
     "'dkip-experiments status' for job ids"),
    (["results", "nope", *SPOOL], "no unique job matches 'nope'"),
    (["report", "fig99"], UNKNOWN_EXPERIMENT),
]


@pytest.mark.parametrize(
    ("argv", "message"), CASES, ids=[" ".join(argv) for argv, _ in CASES]
)
def test_bad_invocation_exits_2_with_its_message(
    argv, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    monkeypatch.delenv("REPRO_SERVICE", raising=False)
    monkeypatch.chdir(tmp_path)
    tmp = str(tmp_path)
    assert cli.main([arg.replace("{tmp}", tmp) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].replace(tmp, "{tmp}") == message
    if argv[0] == "table1":
        assert "table1: Memory configurations" in captured.out  # ran first

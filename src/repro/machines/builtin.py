"""The built-in machine kinds: their spec grammars, parsers and presets.

Every built-in kind registers here, apart from its model: ``r10``,
``ooo-bp``, ``kilo``, ``runahead``, ``limit``, ``dual`` and ``dkip``.
Each ``parse`` turns spec parameters into the kind's config dataclass
(:mod:`repro.sim.config`), so planning and keying a cell load no
simulator.  Each ``build`` imports its model (:mod:`repro.baselines`,
:mod:`repro.core.dkip`) when first called; :func:`load_models` imports
them all at once, which :func:`repro.experiments.common.run_cells` does
just before the executor forks, so pool workers inherit them.

Predictor parameters are validated by
:func:`repro.branch.spec.canonical_predictor`, which constructs the
predictor, so the ``repro.branch`` classes load with this module.
"""

from __future__ import annotations

import importlib
from dataclasses import replace

from repro.branch.spec import PREDICTOR_GRAMMAR, canonical_predictor
from repro.grammar import (
    SpecError,
    parse_count,
    parse_count_or_inf,
    parse_flag,
    parse_nonneg,
    reject_unknown,
)
from repro.machines.presets import MachinePreset, register_preset
from repro.machines.registry import MachineKind, register_machine
from repro.sim.config import (
    CoreConfig,
    DkipConfig,
    DualConfig,
    KiloConfig,
    LimitMachine,
    OooBpConfig,
    RunaheadConfig,
    SchedulerPolicy,
)
from repro.workloads.spec import parse_workload

#: What running a cell imports beyond planning: the runner and the
#: models the built-in kinds' ``build`` functions construct.
MODEL_MODULES = (
    "repro.sim.runner",
    "repro.baselines.ooo",
    "repro.baselines.kilo",
    "repro.baselines.runahead",
    "repro.baselines.limit",
    "repro.baselines.dual",
    "repro.core.dkip",
)


def load_models() -> None:
    """Import the runner and every built-in model (before a pool forks)."""
    for module in MODEL_MODULES:
        importlib.import_module(module)


# ----------------------------------------------------------------------
# Parameters the kinds share
# ----------------------------------------------------------------------


def _predictor(kind: str, spec: str, grammar: str) -> str:
    """The canonical form of predictor *spec*, or a SpecError naming
    *kind*'s grammar."""
    try:
        return canonical_predictor(spec)
    except SpecError as error:
        raise SpecError(f"{kind}: {error}; grammar: {grammar}") from None


def _pipeline(
    kind: str, params: dict[str, str], core: CoreConfig, grammar: str
) -> CoreConfig:
    """*core* (of its own config type) with the ``width``, ``lsq`` and
    ``sched`` parameters of the R10-style kinds applied."""
    if "width" in params:
        width = parse_count(kind, "width", params["width"])
        core = replace(
            core,
            fetch_width=width,
            decode_width=width,
            issue_width=width,
            commit_width=width,
        )
    if "lsq" in params:
        core = replace(core, lsq_size=parse_count(kind, "lsq", params["lsq"]))
    if "sched" in params:
        sched = params["sched"].strip().lower()
        if sched not in ("ino", "ooo"):
            raise SpecError(
                f"{kind}: sched={params['sched']!r} must be ino or ooo; "
                f"grammar: {grammar}"
            )
        core = replace(core, scheduler=SchedulerPolicy(sched))
    return core


# ----------------------------------------------------------------------
# r10 and ooo-bp: the R10000-style core
# ----------------------------------------------------------------------

R10_GRAMMAR = (
    "r10(rob=N, iq=N, lsq=N, width=N, sched=ino|ooo, predictor=NAME, name=STR)"
)
_R10_KEYS = frozenset({"rob", "iq", "lsq", "width", "sched", "predictor", "name"})


def _parse_r10(params: dict[str, str]) -> CoreConfig:
    """Spec params -> CoreConfig; bare ``r10`` is exactly R10-64."""
    reject_unknown("r10", params, _R10_KEYS, R10_GRAMMAR)
    rob = parse_count("r10", "rob", params.get("rob", "64"))
    iq = parse_count("r10", "iq", params.get("iq", "40"))
    config = CoreConfig(
        name=params.get("name", f"R10-{rob}"), rob_size=rob, iq_int=iq, iq_fp=iq
    )
    config = _pipeline("r10", params, config, R10_GRAMMAR)
    if "predictor" in params:
        config = replace(
            config, predictor=_predictor("r10", params["predictor"], R10_GRAMMAR)
        )
    return config


def _build_r10(config, trace, hierarchy, predictor, stats=None):
    from repro.baselines.ooo import R10Core

    return R10Core(trace, config, hierarchy, predictor, stats)


OOOBP_GRAMMAR = (
    "ooo-bp(bp=PRED, rob=N, iq=N, lsq=N, width=N, sched=ino|ooo, name=STR); "
    "PRED: " + PREDICTOR_GRAMMAR
)
_OOOBP_KEYS = frozenset({"bp", "rob", "iq", "lsq", "width", "sched", "name"})


def _parse_ooobp(params: dict[str, str]) -> OooBpConfig:
    """Spec params -> OooBpConfig; bare ``ooo-bp`` is R10-64 + perceptron."""
    reject_unknown("ooo-bp", params, _OOOBP_KEYS, OOOBP_GRAMMAR)
    bp = _predictor("ooo-bp", params.get("bp", "perceptron"), OOOBP_GRAMMAR)
    rob = parse_count("ooo-bp", "rob", params.get("rob", "64"))
    iq = parse_count("ooo-bp", "iq", params.get("iq", "40"))
    config = OooBpConfig(
        name=params.get("name", f"OOO-BP-{rob}-{bp}"),
        rob_size=rob,
        iq_int=iq,
        iq_fp=iq,
        predictor=bp,
    )
    return _pipeline("ooo-bp", params, config, OOOBP_GRAMMAR)


# ----------------------------------------------------------------------
# kilo and runahead: the KILO-class comparators
# ----------------------------------------------------------------------

KILO_GRAMMAR = (
    "kilo(sliq=N, prob=N, timer=N, iq=N, delay=N, rwidth=N, recovery=N, name=STR)"
)
_KILO_KEYS = frozenset(
    {"sliq", "prob", "timer", "iq", "delay", "rwidth", "recovery", "name"}
)


def _parse_kilo(params: dict[str, str]) -> KiloConfig:
    """Spec params -> KiloConfig; bare ``kilo`` is exactly KILO-1024."""
    reject_unknown("kilo", params, _KILO_KEYS, KILO_GRAMMAR)
    sliq = parse_count("kilo", "sliq", params.get("sliq", "1024"))
    iq = parse_count("kilo", "iq", params.get("iq", "72"))
    return KiloConfig(
        name=params.get("name", f"KILO-{sliq}"),
        core=CoreConfig(name="kilo-fe", iq_int=iq, iq_fp=iq),
        pseudo_rob=parse_count("kilo", "prob", params.get("prob", "64")),
        rob_timer=parse_count("kilo", "timer", params.get("timer", "16")),
        sliq_size=sliq,
        recovery_penalty=parse_count("kilo", "recovery", params.get("recovery", "16")),
        sliq_reissue_delay=parse_count("kilo", "delay", params.get("delay", "4")),
        sliq_reissue_width=parse_count("kilo", "rwidth", params.get("rwidth", "4")),
    )


def _build_kilo(config, trace, hierarchy, predictor, stats=None):
    from repro.baselines.kilo import KiloCore

    return KiloCore(trace, config, hierarchy, predictor, stats)


RUNAHEAD_GRAMMAR = "runahead(rob=N, iq=N, exit=N, predictor=NAME, name=STR)"
_RUNAHEAD_KEYS = frozenset({"rob", "iq", "exit", "predictor", "name"})


def _parse_runahead(params: dict[str, str]) -> RunaheadConfig:
    """Spec params -> RunaheadConfig; bare ``runahead`` is runahead-64."""
    reject_unknown("runahead", params, _RUNAHEAD_KEYS, RUNAHEAD_GRAMMAR)
    rob = parse_count("runahead", "rob", params.get("rob", "64"))
    core = CoreConfig(name="runahead-fe", rob_size=rob)
    if "iq" in params:
        iq = parse_count("runahead", "iq", params["iq"])
        core = replace(core, iq_int=iq, iq_fp=iq)
    if "predictor" in params:
        bp = _predictor("runahead", params["predictor"], RUNAHEAD_GRAMMAR)
        core = replace(core, predictor=bp)
    return RunaheadConfig(
        name=params.get("name", f"runahead-{rob}"),
        core=core,
        exit_penalty=parse_count("runahead", "exit", params.get("exit", "8")),
    )


def _build_runahead(config, trace, hierarchy, predictor, stats=None):
    from repro.baselines.runahead import RunaheadCore

    return RunaheadCore(
        trace,
        config.core,
        hierarchy,
        predictor,
        stats,
        exit_penalty=config.exit_penalty,
    )


# ----------------------------------------------------------------------
# limit: the idealized ROB-only core of Figures 1-3
# ----------------------------------------------------------------------

LIMIT_GRAMMAR = (
    "limit(rob=N|inf, predictor=NAME, width=N, redirect=N, histogram=on|off)"
)
_LIMIT_KEYS = frozenset({"rob", "predictor", "width", "redirect", "histogram"})


def _parse_limit(params: dict[str, str]) -> LimitMachine:
    """Spec params -> LimitMachine; bare ``limit`` is the unlimited ROB."""
    reject_unknown("limit", params, _LIMIT_KEYS, LIMIT_GRAMMAR)
    predictor = "perceptron"
    if "predictor" in params:
        predictor = _predictor("limit", params["predictor"], LIMIT_GRAMMAR)
    return LimitMachine(
        rob_size=parse_count_or_inf("limit", "rob", params.get("rob", "inf")),
        predictor=predictor,
        width=parse_count("limit", "width", params.get("width", "4")),
        redirect_penalty=parse_count("limit", "redirect", params.get("redirect", "5")),
        record_histogram=parse_flag("limit", "histogram", params.get("histogram", "on")),
    )


def _build_limit(config, trace, hierarchy, predictor, stats=None):
    from repro.baselines.limit import LimitCore

    return LimitCore(trace, config, hierarchy, predictor, stats)


# ----------------------------------------------------------------------
# dual: two R10-style cores over one shared L2
# ----------------------------------------------------------------------

DUAL_GRAMMAR = (
    "dual(co=WORKLOAD|none, coseed=N, bp=PRED, rob=N, iq=N, lsq=N, width=N, "
    "sched=ino|ooo, l2ports=N, l2busy=N, name=STR); PRED: " + PREDICTOR_GRAMMAR
)
_DUAL_KEYS = frozenset(
    {
        "co", "coseed", "bp", "rob", "iq", "lsq", "width", "sched",
        "l2ports", "l2busy", "name",
    }
)


def _parse_dual(params: dict[str, str]) -> DualConfig:
    """Spec params -> DualConfig; bare ``dual`` is a solo DUAL-64."""
    reject_unknown("dual", params, _DUAL_KEYS, DUAL_GRAMMAR)
    bp = _predictor("dual", params.get("bp", "perceptron"), DUAL_GRAMMAR)
    rob = parse_count("dual", "rob", params.get("rob", "64"))
    iq = parse_count("dual", "iq", params.get("iq", "40"))
    core = CoreConfig(
        name="core0", rob_size=rob, iq_int=iq, iq_fp=iq, predictor=bp
    )
    core = _pipeline("dual", params, core, DUAL_GRAMMAR)
    coseed = parse_nonneg("dual", "coseed", params.get("coseed", "1"))
    co = params.get("co", "none").strip()
    if co.lower() == "none":
        co = "none"
    else:
        try:
            parse_workload(co, seed=coseed)
        except (SpecError, ValueError) as error:
            raise SpecError(
                f"dual: bad co-runner co={co!r}: {error}; "
                f"grammar: {DUAL_GRAMMAR}"
            ) from None
    l2_ports = parse_count("dual", "l2ports", params.get("l2ports", "1"))
    l2_busy = parse_count("dual", "l2busy", params.get("l2busy", "1"))
    default_name = f"DUAL-{rob}" if co == "none" else f"DUAL-{rob}+{co}"
    return DualConfig(
        name=params.get("name", default_name),
        core=core,
        co=co,
        co_seed=coseed,
        l2_ports=l2_ports,
        l2_busy=l2_busy,
    )


def _build_dual(config, trace, hierarchy, predictor, stats=None):
    from repro.baselines.dual import DualCore

    return DualCore(trace, config, hierarchy, predictor, stats)


# ----------------------------------------------------------------------
# dkip: the Decoupled KILO-Instruction Processor
# ----------------------------------------------------------------------

DKIP_GRAMMAR = (
    "dkip(llib=N, cp=INO|OOO-n, mp=INO|OOO-n, rob=N, iq=N, predictor=NAME, "
    "timer=N, banks=N, bank_size=N, checkpoints=N, interval=N, recovery=N, "
    "name=STR)"
)
_DKIP_KEYS = frozenset(
    {
        "llib", "cp", "mp", "rob", "iq", "predictor", "timer", "banks",
        "bank_size", "checkpoints", "interval", "recovery", "name",
    }
)


def _parse_dkip(params: dict[str, str]) -> DkipConfig:
    """Spec params -> DkipConfig; bare ``dkip`` is exactly D-KIP-2048.

    Scalar parameters apply first (``llib`` also renames to
    ``D-KIP-<llib>``; ``rob``, ``iq`` and ``predictor`` set the Cache
    Processor's fields and rename nothing), then ``cp``/``mp`` reuse
    :meth:`DkipConfig.with_cp` / :meth:`~DkipConfig.with_mp` — including
    their renaming — so a spec and its method-chain twin fingerprint
    identically; an explicit ``name=`` wins over everything.
    """
    reject_unknown("dkip", params, _DKIP_KEYS, DKIP_GRAMMAR)
    config = DkipConfig()
    if "llib" in params:
        llib = parse_count("dkip", "llib", params["llib"])
        config = replace(config, llib_size=llib, name=f"D-KIP-{llib}")
    if "timer" in params:
        config = replace(
            config, rob_timer=parse_count("dkip", "timer", params["timer"])
        )
    if "banks" in params:
        config = replace(
            config, llrf_banks=parse_count("dkip", "banks", params["banks"])
        )
    if "bank_size" in params:
        config = replace(
            config,
            llrf_bank_size=parse_count("dkip", "bank_size", params["bank_size"]),
        )
    if "checkpoints" in params:
        config = replace(
            config,
            checkpoint_stack=parse_count("dkip", "checkpoints", params["checkpoints"]),
        )
    if "interval" in params:
        config = replace(
            config,
            checkpoint_interval=parse_count("dkip", "interval", params["interval"]),
        )
    if "recovery" in params:
        config = replace(
            config, recovery_penalty=parse_count("dkip", "recovery", params["recovery"])
        )
    cp = config.cache_processor
    if "rob" in params:
        cp = replace(cp, rob_size=parse_count("dkip", "rob", params["rob"]))
    if "iq" in params:
        iq = parse_count("dkip", "iq", params["iq"])
        cp = replace(cp, iq_int=iq, iq_fp=iq)
    if "predictor" in params:
        cp = replace(cp, predictor=_predictor("dkip", params["predictor"], DKIP_GRAMMAR))
    if cp is not config.cache_processor:
        config = replace(config, cache_processor=cp)
    if "cp" in params:
        config = config.with_cp(params["cp"].strip().upper())
    if "mp" in params:
        config = config.with_mp(params["mp"].strip().upper())
    if "name" in params:
        config = replace(config, name=params["name"])
    return config


def _build_dkip(config, trace, hierarchy, predictor, stats=None):
    from repro.core.dkip import DkipProcessor

    return DkipProcessor(trace, config, hierarchy, predictor, stats)


# ----------------------------------------------------------------------
# Registration, in the order the ``machines`` subcommand lists the kinds
# ----------------------------------------------------------------------

for _kind in (
    MachineKind(
        name="r10",
        config_cls=CoreConfig,
        build=_build_r10,
        parse=_parse_r10,
        description="R10000-style out-of-order core (the Figure-9 baselines)",
        grammar=R10_GRAMMAR,
    ),
    MachineKind(
        # The unmodified R10 pipeline; only the config type differs, so
        # ooo-bp cells fingerprint apart from r10 cells.
        name="ooo-bp",
        config_cls=OooBpConfig,
        build=_build_r10,
        parse=_parse_ooobp,
        description="R10-style core with the branch predictor as the swept axis",
        grammar=OOOBP_GRAMMAR,
    ),
    MachineKind(
        name="kilo",
        config_cls=KiloConfig,
        build=_build_kilo,
        parse=_parse_kilo,
        description="Traditional KILO processor: pseudo-ROB + out-of-order SLIQ",
        grammar=KILO_GRAMMAR,
    ),
    MachineKind(
        name="runahead",
        config_cls=RunaheadConfig,
        build=_build_runahead,
        parse=_parse_runahead,
        description="Runahead-execution comparator (reference [24] ablations)",
        grammar=RUNAHEAD_GRAMMAR,
    ),
    MachineKind(
        name="limit",
        config_cls=LimitMachine,
        build=_build_limit,
        parse=_parse_limit,
        description="Idealized ROB-only limit core (Figures 1-3)",
        grammar=LIMIT_GRAMMAR,
    ),
    MachineKind(
        name="dual",
        config_cls=DualConfig,
        build=_build_dual,
        parse=_parse_dual,
        description="two R10-style cores sharing an arbitrated L2 "
        "(co-runner contention axis)",
        grammar=DUAL_GRAMMAR,
    ),
    MachineKind(
        name="dkip",
        config_cls=DkipConfig,
        build=_build_dkip,
        parse=_parse_dkip,
        description="Decoupled KILO-Instruction Processor (CP + LLIBs + MPs)",
        grammar=DKIP_GRAMMAR,
    ),
):
    register_machine(_kind)

#: Named predictor-axis and contention points for the CLI and the
#: cookbook examples.
for _preset in (
    MachinePreset(
        name="OOO-BP-64-gshare-14",
        config=_parse_ooobp({"bp": "gshare-14"}),
        kind="ooo-bp",
        spec="ooo-bp(bp=gshare-14)",
        provenance="predictor-axis baseline: R10-64 pipeline behind gshare-14",
    ),
    MachinePreset(
        name="OOO-BP-64-oracle",
        config=_parse_ooobp({"bp": "oracle"}),
        kind="ooo-bp",
        spec="ooo-bp(bp=oracle)",
        provenance="perfect-prediction upper bound for the predictor axis",
    ),
    MachinePreset(
        name="DUAL-64",
        config=_parse_dual({}),
        kind="dual",
        spec="dual()",
        provenance="contention study — solo R10-64 core on the shared-L2 "
        "substrate (the slowdown baseline)",
    ),
    MachinePreset(
        name="DUAL-64-contended",
        config=_parse_dual({"co": "synth(chase=12,footprint=1M)"}),
        kind="dual",
        spec="dual(co=synth(chase=12,footprint=1M))",
        provenance="contention study — pointer-chasing co-runner keeping "
        "the shared L2 and its ports busy",
    ),
):
    register_preset(_preset)

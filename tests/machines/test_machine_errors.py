"""Error paths of the spec grammar: every bad spec names its grammar."""

import pytest

from repro.machines import SpecError, parse_machine, parse_memory, split_specs
from repro.machines.spec import load_spec_file


@pytest.mark.parametrize(
    "bad",
    [
        "warp-drive",                # unknown kind, not a preset
        "r10(rob=64",                # unbalanced parens
        "r10(rob)",                  # missing value
        "r10(=64)",                  # missing key
        "r10(rob=64,rob=128)",       # duplicate key
        "r10(flux=9)",               # unknown parameter
        "r10(rob=0)",                # zero count
        "r10(rob=-4)",               # negative count
        "r10(rob=lots)",             # non-numeric count
        "r10(sched=maybe)",          # bad enum value
        "dkip(cp=OOO-0)",            # queue grammar: zero size
        "dkip(cp=OOO--5)",           # queue grammar: negative size
        "dkip(mp=FAST)",             # queue grammar: unknown word
        "dkip(predictor=tage)",      # unknown predictor family
        "limit(histogram=perhaps)",  # bad boolean
        "kilo(sliq=12.5)",           # non-integer count
        "ooo-bp(bp=tage)",           # unknown predictor family
        "ooo-bp(bp=gshare-x)",       # non-numeric predictor parameter
        "ooo-bp(bp=gshare-14-16)",   # history exceeds table bits
        "ooo-bp(bp=perceptron-100)", # rows not a power of two
        "ooo-bp(bp=)",               # empty predictor spec
        "ooo-bp(flux=1)",            # unknown parameter
        "ooo-bp(sched=fast)",        # bad enum value
        "dual(co=warp(x=1))",        # co-runner isn't a workload spec
        "dual(co=synth(stream=0))",  # bad parameter inside the co spec
        "dual(l2ports=0)",           # arbiter needs at least one port
        "dual(l2busy=-1)",           # negative port occupancy
        "dual(bp=bogus-3)",          # unknown predictor on the dual axis
        "dual(coseed=-1)",           # negative seed
        "dual(turbo=1)",             # unknown parameter
    ],
)
def test_bad_machine_specs_raise(bad):
    with pytest.raises(ValueError):
        parse_machine(bad)


def test_unknown_kind_lists_alternatives():
    with pytest.raises(ValueError, match="dkip"):
        parse_machine("warp-drive")


def test_unknown_parameter_names_grammar():
    with pytest.raises(ValueError, match=r"grammar: r10\("):
        parse_machine("r10(flux=9)")


def test_queue_error_propagates_with_grammar():
    with pytest.raises(ValueError, match="OOO-"):
        parse_machine("dkip(cp=OOO-0)")


def test_bad_bp_names_ooobp_and_predictor_grammars():
    """A malformed bp= names both the machine grammar and the predictor
    grammar it delegates to."""
    with pytest.raises(SpecError, match=r"grammar: ooo-bp\(") as excinfo:
        parse_machine("ooo-bp(bp=tage)")
    assert "perceptron[-ENTRIES" in str(excinfo.value)
    with pytest.raises(SpecError, match=r"grammar: dual\("):
        parse_machine("dual(bp=tage)")


def test_bad_limit_predictor_fails_at_parse():
    """limit(predictor=...) is validated at parse time, like r10's, not
    mid-sweep when the cell first trains its predictor."""
    with pytest.raises(SpecError, match=r"grammar: limit\(") as excinfo:
        parse_machine("limit(rob=64,predictor=bogus)")
    assert "perceptron[-ENTRIES" in str(excinfo.value)


def test_bad_co_runner_names_dual_and_workload_grammars():
    """A malformed co= chains the workload error under the dual grammar."""
    with pytest.raises(SpecError, match=r"grammar: dual\(") as excinfo:
        parse_machine("dual(co=warp(x=1))")
    message = str(excinfo.value)
    assert "bad co-runner" in message
    assert "warp" in message


def test_unknown_dual_parameter_names_grammar():
    with pytest.raises(SpecError, match=r"grammar: dual\("):
        parse_machine("dual(turbo=1)")
    with pytest.raises(SpecError, match=r"grammar: ooo-bp\("):
        parse_machine("ooo-bp(flux=1)")


@pytest.mark.parametrize(
    "bad",
    [
        "MEM-9000",          # not a Table-1 name
        "cache(lat=1)",      # unknown spec kind
        "mem(lat=0)",        # zero latency
        "mem(l2=-1M)",       # negative size
        "mem(warp=1)",       # unknown key
    ],
)
def test_bad_memory_specs_raise(bad):
    with pytest.raises(SpecError):
        parse_memory(bad)


def test_split_specs_rejects_unbalanced():
    with pytest.raises(SpecError):
        split_specs("dkip(llib=4096")
    with pytest.raises(SpecError):
        split_specs("dkip)llib=4096(")


def test_spec_file_rejects_unknown_suffix(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("machines: [r10]\n")
    with pytest.raises(SpecError, match=".toml or .json"):
        load_spec_file(path)

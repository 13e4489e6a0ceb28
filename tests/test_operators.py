import pytest
from hypothesis import given, strategies as st

from treeflow.bitseq import EMPTY, BitString
from treeflow.operators import (
    FunctionRoster,
    InconsistentGraph,
    LinearFunction,
    OperatorError,
    OperatorRoster,
    TableFunction,
    TableOperator,
    TransducerOperator,
    apply_modified,
    const_operator,
    doubler_operator,
    echo_operator,
    flip_operator,
    load_rosters,
    phi_bounded,
    silent_operator,
)

B = BitString.from_str

bits_st = st.integers(0, 10).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda v: BitString(n, v))
)


@given(bits_st)
def test_echo_image_is_input(x):
    assert apply_modified(echo_operator(), x) == x


@given(bits_st)
def test_silent_image_is_empty(x):
    assert apply_modified(silent_operator(), x) == EMPTY


@given(bits_st)
def test_flip_image_flips_every_bit(x):
    y = apply_modified(flip_operator(), x)
    assert len(y) == len(x)
    assert str(y) == "".join("10"[int(c)] for c in str(x))


@given(bits_st)
def test_doubler_image_truncates_to_budget(x):
    y = apply_modified(doubler_operator(), x)
    assert len(y) == len(x)
    # Doubled stream clipped at len(x): bit p of y is bit ceil(p/2) of x.
    assert str(y) == "".join(c + c for c in str(x))[: len(x)]


def test_const_operator_emits_then_halts():
    op = const_operator("1101")
    assert str(apply_modified(op, B("000000"))) == "1101"
    assert str(apply_modified(op, B("01"))) == "11"
    assert apply_modified(op, EMPTY) == EMPTY


def test_missing_rule_halts_output():
    op = TransducerOperator({("a", 0): ("a", (1,))}, "a")
    assert str(apply_modified(op, B("0010"))) == "11"


def test_table_image_takes_longest_reachable_output():
    op = TableOperator(
        [
            (B("0"), B("10"), 1),
            (B("01"), B("1011"), 2),
            (B("1"), B("0"), 5),
        ]
    )
    assert str(apply_modified(op, B("011"))) == "101"
    # Budget 1: the cost-2 entry is out of reach.
    assert str(apply_modified(op, B("0"))) == "1"
    # Entry costs above the input length never apply.
    assert apply_modified(op, B("1")) == EMPTY
    assert str(apply_modified(op, B("11111"))) == "0"


def test_table_inconsistency_is_fatal():
    with pytest.raises(InconsistentGraph):
        TableOperator([(B("0"), B("10"), 1), (B("00"), B("01"), 1)])


def test_load_refuses_a_table_that_some_input_makes_inconsistent():
    def table(*entries):
        return {"kind": "table", "entries": [list(e) for e in entries]}

    def load(op):
        functions = [{"kind": "linear", "a": 1, "b": 1}]
        return load_rosters({"operators": [op], "functions": functions})

    # Comparable inputs, incomparable outputs: refused however costly.
    for entries in (
        [("0", "10", 1), ("00", "01", 1)],
        [("00", "01", 90), ("0", "10", 70)],
        [("", "1", 1), ("1011", "0", 5)],
    ):
        with pytest.raises(InconsistentGraph):
            load(table(*entries))
    # Incomparable inputs, or comparable outputs, are consistent.
    for entries in (
        [("0", "10", 1), ("1", "01", 1)],
        [("0", "1", 1), ("00", "101", 3)],
        [("0", "", 1), ("01", "11", 1)],
    ):
        load(table(*entries))


def test_max_image_len():
    assert echo_operator().max_image_len(7) == 7
    assert silent_operator().max_image_len(7) == 0
    assert doubler_operator().max_image_len(7) == 7
    assert const_operator("110100110").max_image_len(4) == 4
    assert const_operator("110100110").max_image_len(30) == 9
    assert const_operator("11").max_image_len(0) == 0
    tab = TableOperator([(B("0"), B("111111"), 3)])
    assert tab.max_image_len(2) == 0
    assert tab.max_image_len(3) == 3
    assert tab.max_image_len(9) == 6


@given(bits_st)
def test_max_image_len_bounds_every_image(x):
    for op in (echo_operator(), doubler_operator(), const_operator("10110")):
        assert len(apply_modified(op, x)) <= op.max_image_len(len(x))


def test_prefix_image_only_labels():
    assert echo_operator().prefix_image_only()
    assert silent_operator().prefix_image_only()
    assert not flip_operator().prefix_image_only()
    assert not doubler_operator().prefix_image_only()
    assert not const_operator("01").prefix_image_only()
    # Echo two bits then go silent: images are proper prefixes.
    op = TransducerOperator(
        {
            ("a", 0): ("b", (0,)),
            ("a", 1): ("b", (1,)),
            ("b", 0): ("c", (0,)),
            ("b", 1): ("c", (1,)),
            ("c", 0): ("c", ()),
            ("c", 1): ("c", ()),
        },
        "a",
    )
    assert op.prefix_image_only()


@given(bits_st)
def test_prefix_image_only_is_sound(x):
    ops = [
        echo_operator(),
        silent_operator(),
        flip_operator(),
        doubler_operator(),
        const_operator("011"),
    ]
    for op in ops:
        if op.prefix_image_only():
            assert apply_modified(op, x).is_prefix_of(x)


def test_roster_wrap():
    roster = OperatorRoster((echo_operator(), silent_operator(), flip_operator()))
    # unpair_1 of 1..6 is 1,1,2,1,2,3: bases 0,0,1,0,1,2.
    assert roster.operator_for(1) is roster.bases[0]
    assert roster.operator_for(2) is roster.bases[0]
    assert roster.operator_for(3) is roster.bases[1]
    assert roster.operator_for(6) is roster.bases[2]
    # Index 7 unpairs to (1, 4): wraps back to base 0.
    assert roster.operator_for(7) is roster.bases[0]


def test_phi_bounded():
    fns = FunctionRoster((LinearFunction(2, 2), TableFunction([(4, 9, 3)])))
    assert phi_bounded(fns, 1, 5, 12) == 12
    assert phi_bounded(fns, 1, 5, 11) is None
    assert phi_bounded(fns, 3, 4, 3) == 9
    assert phi_bounded(fns, 3, 4, 2) is None
    assert phi_bounded(fns, 3, 5, 50) is None


def test_load_rosters_round_trip():
    desc = {
        "operators": [
            {"kind": "echo"},
            {"kind": "const", "bits": "110", "name": "c110"},
            {"kind": "table", "entries": [["0", "111", 2]]},
        ],
        "functions": [
            {"kind": "linear", "a": 2, "b": 2},
            {"kind": "table", "rows": [[3, 7, 1]]},
        ],
    }
    ops, fns = load_rosters(desc)
    assert len(ops.bases) == 3 and len(fns.bases) == 2
    assert str(apply_modified(ops.bases[1], B("0000"))) == "110"
    assert phi_bounded(fns, 1, 1, 4) == 4
    with pytest.raises(OperatorError):
        load_rosters({"operators": [], "functions": []})


def test_length_determined_reference_ops():
    assert silent_operator().length_determined()
    assert const_operator("110").length_determined()
    assert not echo_operator().length_determined()
    assert not flip_operator().length_determined()
    assert not doubler_operator().length_determined()
    assert TableOperator([]).length_determined()
    assert not TableOperator([(B("0"), B("11"), 1)]).length_determined()


@given(bits_st, bits_st)
def test_length_determined_means_equal_length_inputs_agree(x, y):
    for op in (silent_operator(), const_operator("1001")):
        if len(x) == len(y):
            assert apply_modified(op, x) == apply_modified(op, y)


def test_base_for_direct_indexing():
    roster = OperatorRoster((echo_operator(), silent_operator(), flip_operator()))
    assert roster.base_for(1) is roster.bases[0]
    assert roster.base_for(3) is roster.bases[2]
    assert roster.base_for(4) is roster.bases[0]


@st.composite
def transducers(draw):
    """Transducers of 1-3 states: each (state, bit) rule may be missing,
    and each present rule emits 0-3 bits."""
    states = [f"q{k}" for k in range(draw(st.integers(1, 3)))]
    rules = {}
    for state in states:
        for b in (0, 1):
            if draw(st.booleans()):
                emit = draw(st.lists(st.integers(0, 1), max_size=3))
                rules[state, b] = (draw(st.sampled_from(states)), tuple(emit))
    return TransducerOperator(rules, states[0])


@st.composite
def consistent_tables(draw):
    """Tables of 0-5 entries whose outputs are all prefixes of one string,
    so no two outputs are incomparable."""
    out = draw(st.integers(0, 14).flatmap(
        lambda n: st.integers(0, (1 << n) - 1).map(lambda v: BitString(n, v))
    ))
    entries = []
    for _ in range(draw(st.integers(0, 5))):
        src = draw(bits_st)
        dst = out.truncate(draw(st.integers(0, len(out))))
        entries.append((src, dst, draw(st.integers(1, 14))))
    return TableOperator(entries)


bits12_st = st.integers(0, 12).flatmap(
    lambda n: st.integers(0, (1 << n) - 1).map(lambda v: BitString(n, v))
)


def run_then_truncate(op: TransducerOperator, x: BitString) -> BitString:
    """Reference image: run the machine over all of x, keeping every bit
    it emits, then cut the output to len(x) bits."""
    state = op.start
    out_len = 0
    out_val = 0
    for p in range(1, len(x) + 1):
        rule = op.rules.get((state, (x.value >> (len(x) - p)) & 1))
        if rule is None:
            break
        state, emit = rule
        for e in emit:
            out_val = (out_val << 1) | e
            out_len += 1
    y = BitString(out_len, out_val)
    return y.truncate(min(len(y), len(x)))


@given(transducers(), bits12_st)
def test_transducer_image_is_the_run_cut_to_the_input_length(op, x):
    assert op.image(x) == run_then_truncate(op, x)


@given(st.one_of(transducers(), consistent_tables()), bits12_st)
def test_an_image_is_never_longer_than_its_input(op, x):
    assert len(op.image(x)) <= len(x)

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import oracle_region_words

from ladderbus.appgraph import generate_synthetic
from ladderbus.controlgen import (
    ControllerProgram,
    ControllerRegion,
    control_memory_bits,
    decode_programs,
    default_controller_count,
    encode_scenarios,
    format_program,
    parse_program,
    partition_regions,
)
from ladderbus.grouping import group_greedy, group_iterated, scenario_lower_bound, scenario_switch_matrix
from ladderbus.placement import place_anneal
from ladderbus.routing import extract_paths
from ladderbus.topology import build_topology


def pipeline(n, e, seed):
    g = generate_synthetic(n, e, seed)
    topo = build_topology(max(n, 2))
    placement = place_anneal(g, topo, seed=seed + 1)
    paths = extract_paths(g, topo, placement)
    partition = group_iterated(paths, scenario_lower_bound(paths), group_greedy(paths))
    return topo, paths, scenario_switch_matrix(partition.scenarios, paths, topo)


def test_partition_single_region():
    topo = build_topology(8, 3)  # 4 columns, 3 lanes
    regions = partition_regions(topo, 1)
    assert len(regions) == 1
    assert regions[0].n_switches == 12
    assert (regions[0].col_start, regions[0].col_end) == (0, 3)


def test_partition_two_even_regions():
    topo = build_topology(8, 3)
    regions = partition_regions(topo, 2)
    assert [(r.col_start, r.col_end) for r in regions] == [(0, 1), (2, 3)]


def test_partition_uneven_sizes_balanced():
    topo = build_topology(10, 2)  # 5 columns
    regions = partition_regions(topo, 2)
    assert [(r.col_start, r.col_end) for r in regions] == [(0, 2), (3, 4)]
    sizes = [r.n_columns for r in regions]
    assert max(sizes) - min(sizes) == 1


def test_partition_rejects_out_of_range():
    topo = build_topology(8, 3)
    with pytest.raises(ValueError):
        partition_regions(topo, 0)
    with pytest.raises(ValueError):
        partition_regions(topo, 5)


def test_partition_covers_all_columns():
    rng = random.Random(4)
    for _ in range(20):
        topo = build_topology(rng.randint(2, 40))
        k = rng.randint(1, topo.n_columns)
        regions = partition_regions(topo, k)
        cols = []
        for r in regions:
            cols.extend(range(r.col_start, r.col_end + 1))
        assert cols == list(range(topo.n_columns))


def test_encode_single_region_is_identity_projection():
    topo, paths, vectors = pipeline(10, 20, seed=0)
    programs = encode_scenarios(vectors, partition_regions(topo, 1), topo)
    decoded = decode_programs(programs, topo)
    assert decoded.tolist() == vectors.tolist()


def test_encode_all_idle_scenario_zero_word():
    # same-column paths need no switch drive: all words zero
    topo, paths, vectors = pipeline(2, 2, seed=0)
    assert all(p.cmin == p.cmax for p in paths)
    programs = encode_scenarios(vectors, partition_regions(topo, 1), topo)
    assert all(w == 0 for prog in programs for w in prog.memory)


def test_encode_round_trip_multi_region():
    for seed in range(5):
        topo, paths, vectors = pipeline(24, 128, seed=seed)
        regions = partition_regions(topo, 3)
        programs = encode_scenarios(vectors, regions, topo)
        decoded = decode_programs(programs, topo)
        assert decoded.tolist() == vectors.tolist()


def test_encode_word_width():
    topo, paths, vectors = pipeline(12, 30, seed=1)
    regions = partition_regions(topo, 2)
    programs = encode_scenarios(vectors, regions, topo)
    for prog in programs:
        assert prog.region.word_bits == 2 * prog.region.n_switches
        for w in prog.memory:
            assert 0 <= w < (1 << prog.region.word_bits)


def test_control_memory_bits_total():
    topo, paths, vectors = pipeline(12, 30, seed=1)
    programs = encode_scenarios(vectors, partition_regions(topo, 2), topo)
    assert control_memory_bits(programs) == len(vectors) * 2 * topo.n_switches


def test_all_programs_share_frame_length():
    # a frame is one step per scenario, so every controller holds one word per scenario
    topo, paths, vectors = pipeline(24, 100, seed=4)
    programs = encode_scenarios(vectors, partition_regions(topo, 4), topo)
    assert {len(p.memory) for p in programs} == {len(vectors)}


def test_program_file_round_trip():
    topo, paths, vectors = pipeline(14, 41, seed=5)
    programs = encode_scenarios(vectors, partition_regions(topo, default_controller_count(topo)), topo)
    for prog in programs:
        text = format_program(prog)
        assert text.startswith("ladderbus-ctrl v2\n") and text.endswith("\nend\n")
        assert parse_program(text) == prog
        # byte stability
        assert format_program(parse_program(text)) == text


def test_program_file_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_program("something else\nregion 0\n")


def test_encode_rejects_bad_regions():
    topo, paths, vectors = pipeline(10, 20, seed=0)
    regions = partition_regions(topo, 2)[:1]  # drop one region
    with pytest.raises(ValueError):
        encode_scenarios(vectors, regions, topo)


def test_decode_rejects_programs_missing_a_region():
    topo, paths, vectors = pipeline(24, 128, seed=3)
    programs = encode_scenarios(vectors, partition_regions(topo, default_controller_count(topo)), topo)
    with pytest.raises(ValueError, match="partition"):
        decode_programs(programs[:-1], topo)


def test_decode_rejects_wrong_lane_count():
    topo, paths, vectors = pipeline(24, 128, seed=3)
    programs = encode_scenarios(vectors, partition_regions(topo, 2), topo)
    narrow = dataclasses.replace(programs[0], region=dataclasses.replace(programs[0].region, n_lanes=topo.n_lanes - 1))
    with pytest.raises(ValueError, match="lanes"):
        decode_programs([narrow, programs[1]], topo)


@st.composite
def vector_sets(draw):
    """A ladder, arbitrary 2-bit switch vectors on it and a region count."""
    topo = build_topology(2 * draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    vectors = draw(st.lists(
        st.lists(st.integers(0, 3), min_size=topo.n_switches, max_size=topo.n_switches).map(tuple),
        max_size=4,
    ))
    return topo, tuple(vectors), draw(st.integers(1, topo.n_columns))


@settings(max_examples=200, deadline=None)
@given(vector_sets())
def test_encode_format_parse_decode_round_trip(instance):
    topo, vectors, n_regions = instance
    programs = encode_scenarios(np.array(vectors, dtype=np.int8).reshape(-1, topo.n_switches),
                                partition_regions(topo, n_regions), topo)
    parsed = [parse_program(format_program(p)) for p in programs]
    assert decode_programs(parsed, topo).tolist() == [list(vec) for vec in vectors]


@settings(max_examples=200, deadline=None)
@given(vector_sets())
@example((build_topology(6, 3), (), 1))  # no scenarios
@example((build_topology(6, 3), ((3, 1, 2, 0, 3, 3, 1, 0, 2),), 1))  # 9 switches: 1 in the last byte
@example((build_topology(10, 1), ((1, 2, 3, 1, 2),), 2))  # regions of 3 and 2 switches
def test_encode_matches_word_layout_oracle(instance):
    topo, vectors, n_regions = instance
    matrix = np.array(vectors, dtype=np.int8).reshape(-1, topo.n_switches)
    programs = encode_scenarios(matrix, partition_regions(topo, n_regions), topo)
    for prog in programs:
        r = prog.region
        assert list(prog.memory) == oracle_region_words(topo, vectors, r.col_start, r.col_end)


@pytest.mark.parametrize("word", [11 | 1 << 40, 1 << 4, -1])
def test_decode_rejects_word_outside_word_bits(word):
    topo = build_topology(4, 1)  # 2 columns, 1 lane: one 4-bit region
    region = ControllerRegion(controller_id=0, col_start=0, col_end=1, n_lanes=1)
    prog = ControllerProgram(region=region, memory=(3, word))
    with pytest.raises(ValueError, match=r"controller 0, scenario 1: .* does not fit in 4 bits"):
        decode_programs([prog], topo)


def _program_text():
    topo, paths, vectors = pipeline(14, 41, seed=5)
    return format_program(encode_scenarios(vectors, partition_regions(topo, 2), topo)[0])


def test_parse_rejects_step_without_repeat():
    # a frame is the scenario list: a v2 program has no step lines, with a repeat or without
    for step in ("step 0", "step 0 1"):
        text = _program_text().replace("end\n", f"{step}\nend\n")
        with pytest.raises(ValueError, match=f"'{step}': unknown keyword"):
            parse_program(text)


def test_parse_rejects_unknown_keyword():
    # a misspelled header line is named, not reported as a missing one
    text = _program_text().replace("n_lanes ", "n_lnaes ")
    with pytest.raises(ValueError, match=r"'n_lnaes \d+': unknown keyword"):
        parse_program(text)


def _doubled(key):
    """Edit that repeats the program's `key` line."""
    def edit(text):
        line = next(ln for ln in text.splitlines(keepends=True) if ln.startswith(key + " "))
        return text.replace(line, line + line)
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("ladderbus-ctrl v2", "ladderbus-ctrl v1"), "not a ladderbus-ctrl v2 program"),
    (_doubled("region"), "a second 'region' line"),
    (_doubled("mem"), "a second 'mem' line"),
    (lambda text: text[:-len("end\n")], "no 'end' line"),  # the mem line is the one before end
    (lambda text: text + "region 1\n", "'region 1' follows the 'end' line"),
], ids=["v1-header", "second-region", "second-mem", "cut-after-mem", "text-after-end"])
def test_parse_rejects_malformed_structure(edit, message):
    with pytest.raises(ValueError, match=message):
        parse_program(edit(_program_text()))


def test_parse_rejects_missing_region_line():
    text = "".join(ln for ln in _program_text().splitlines(keepends=True) if not ln.startswith("region "))
    with pytest.raises(ValueError, match="no 'region' line"):
        parse_program(text)


def test_parse_rejects_word_wider_than_word_bits():
    text = _program_text()
    prog = parse_program(text)
    old = text.split("\n")[6]  # the mem line
    new = "mem " + " ".join(f"{w:x}" for w in (1 << prog.region.word_bits,) + prog.memory[1:])
    with pytest.raises(ValueError, match="memory word 0"):
        parse_program(text.replace(old, new))


@pytest.mark.parametrize("key, values, message", [
    ("mem", "zz", "program line 'mem zz': 'zz' is not a hexadecimal integer"),
    ("columns", "0 x", "program line 'columns 0 x': 'x' is not a decimal integer"),
    # spellings Python's int accepts and format_program never writes
    ("mem", "0x5 0_a", "program line 'mem 0x5 0_a': '0x5' is not a hexadecimal integer"),
    ("mem", "5 0_a", "program line 'mem 5 0_a': '0_a' is not a hexadecimal integer"),
    ("mem", "5 +a", r"program line 'mem 5 \+a': '\+a' is not a hexadecimal integer"),
    ("mem", "5 A", "program line 'mem 5 A': 'A' is not a hexadecimal integer"),
    ("mem", "\u0665", "program line 'mem \u0665': '\u0665' is not a hexadecimal integer"),
    ("columns", "+0 0_1", r"program line 'columns \+0 0_1': '\+0' is not a decimal integer"),
    ("columns", "0 0_1", "program line 'columns 0 0_1': '0_1' is not a decimal integer"),
    ("columns", "0 \u0661", "program line 'columns 0 \u0661': '\u0661' is not a decimal integer"),
], ids=["mem-word-not-hexadecimal", "columns-value-not-decimal", "mem-word-with-0x-prefix",
        "mem-word-with-underscore", "mem-word-with-sign", "mem-word-upper-case", "mem-word-non-ascii-digit",
        "columns-value-with-sign", "columns-value-with-underscore", "columns-value-non-ascii-digit"])
def test_parse_names_the_line_of_a_value_that_is_not_an_integer(key, values, message):
    text = "".join(f"{key} {values}\n" if ln.startswith(key + " ") else ln
                   for ln in _program_text().splitlines(keepends=True))
    with pytest.raises(ValueError, match=message):
        parse_program(text)


@pytest.mark.parametrize("key, values, message", [
    ("columns", "2 0", "program field 'columns' is 2 0, not an ascending range"),
    ("columns", "-1 1", "program field 'columns' is -1 1, not an ascending range"),
    ("n_lanes", "0", "program field 'n_lanes' is 0, below 1"),
])
def test_parse_names_a_region_no_ladder_has(key, values, message):
    text = "".join(f"{key} {values}\n" if ln.startswith(key + " ") else ln
                   for ln in _program_text().splitlines(keepends=True))
    with pytest.raises(ValueError, match=message):
        parse_program(text)


# each program keyword with the count of values its line takes ("step" is no keyword)
_KEYWORDS = {"region": 1, "columns": 2, "n_lanes": 1, "word_bits": 1, "scenarios": 1, "mem": 2, "end": 0,
             "step": 2}
_tokens = st.one_of(st.integers(-2, 6).map(str), st.integers(-2**70, 2**70).map(str),
                    st.integers(0, 2**40).map(lambda v: f"{v:x}"), st.text(max_size=3))


def _program_line(key):
    n = _KEYWORDS[key]
    return st.lists(_tokens, min_size=n, max_size=n + 1).map(lambda vals: " ".join([key, *vals]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(st.sampled_from(sorted(_KEYWORDS)).flatmap(_program_line), max_size=12).map(
        lambda lines: "\n".join(["ladderbus-ctrl v2", *lines])),
))
@example("ladderbus-ctrl v2\nregion 0\ncolumns 0 1000000000000\nn_lanes 1\n"
         "word_bits 2000000000002\nscenarios 1\nmem 5\nend\n")  # a word width no shift may build
def test_parse_program_raises_only_value_error(text):
    try:
        prog = parse_program(text)
    except ValueError:
        return
    assert isinstance(prog, ControllerProgram)


def test_parse_rejects_word_bits_not_matching_region():
    text = _program_text()
    bits = parse_program(text).region.word_bits
    with pytest.raises(ValueError, match="word_bits"):
        parse_program(text.replace(f"word_bits {bits}\n", f"word_bits {bits + 2}\n"))

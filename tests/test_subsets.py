from __future__ import annotations

import numpy as np
import pytest

import diagsynth as ds
from diagsynth import paper
from diagsynth.subsets import dictionary_words, gray_walk


def as_lines(masks, m):
    return [ds.subset_lines(mask, m) for mask in masks]


def gray_masks(m):
    return gray_walk(m)[0].tolist()


def dictionary_masks(m):
    return dictionary_words(m).tolist()


def reflected_gray_oracle(m):
    """Independent construction: reflect-and-prefix recursion on bit strings."""
    words = [""]
    for _ in range(m):
        words = ["0" + w for w in words] + ["1" + w for w in words[::-1]]
    return [int(w, 2) for w in words]


def test_gray_three_lines():
    got = as_lines(gray_masks(3), 3)
    assert got == [
        (),
        (3,),
        (2, 3),
        (2,),
        (1, 2),
        (1, 2, 3),
        (1, 3),
        (1,),
    ]


def test_gray_one_line():
    assert as_lines(gray_masks(1), 1) == [(), (1,)]


def test_gray_two_lines_matches_reflected_construction():
    assert gray_masks(2) == reflected_gray_oracle(2) == [0b00, 0b01, 0b11, 0b10]


@pytest.mark.parametrize("m", range(1, 9))
def test_gray_adjacency_and_coverage(m):
    seq = gray_masks(m)
    assert sorted(seq) == list(range(1 << m))
    assert seq == reflected_gray_oracle(m)
    for a, b in zip(seq, seq[1:]):
        assert bin(a ^ b).count("1") == 1


@pytest.mark.parametrize("m", range(1, 13))
def test_gray_walk_steps_name_the_changed_line(m):
    # the last mask is compared with the empty set, the first one
    masks, steps = gray_walk(m)
    for i in range(1 << m):
        assert ds.subset_lines(int(masks[i] ^ masks[(i + 1) % (1 << m)]), m) == (steps[i],)


def test_gray_rejects_zero_lines():
    with pytest.raises(ValueError):
        gray_walk(0)


def test_dictionary_two_lines():
    assert as_lines(dictionary_masks(2), 2) == [(1,), (1, 2), (2,)]


def test_dictionary_one_line():
    assert as_lines(dictionary_masks(1), 1) == [(1,)]


def test_dictionary_three_lines():
    got = as_lines(dictionary_masks(3), 3)
    # oracle: sort the textual element lists
    words = sorted("".join(str(k) for k in lines) for lines in got)
    assert ["".join(str(k) for k in lines) for lines in got] == words
    assert got == [
        (1,),
        (1, 2),
        (1, 2, 3),
        (1, 3),
        (2,),
        (2, 3),
        (3,),
    ]


@pytest.mark.parametrize("m", range(1, 15))
def test_dictionary_order_is_the_sorted_word_order(m):
    got = dictionary_masks(m)
    assert got == sorted(range(1, 1 << m), key=lambda mask: ds.subset_lines(mask, m))
    assert all(type(mask) is int for mask in got)


def test_dictionary_words_are_the_order_as_int64():
    assert dictionary_words(0).dtype == np.int64 and dictionary_words(0).size == 0
    for m in range(1, 9):
        words = dictionary_words(m)
        assert words.dtype == np.int64 and words.tolist() == sorted(range(1, 1 << m), key=lambda mask: ds.subset_lines(mask, m))


def brute_force_flips(lines, m):
    out = set()
    for j in range(1, 1 << m):
        bits = format(j, f"0{m}b")
        if sum(int(bits[k - 1]) for k in lines) % 2 == 1:
            out.add(j)
    return out


def test_flip_states_table_four_qubit_controls():
    # all seven subsets of three control lines, states written b1 b2 b3
    table = {
        (1,): {0b100, 0b101, 0b110, 0b111},
        (1, 2): {0b010, 0b011, 0b100, 0b101},
        (1, 3): {0b001, 0b011, 0b100, 0b110},
        (1, 2, 3): {0b001, 0b010, 0b100, 0b111},
        (2,): {0b010, 0b011, 0b110, 0b111},
        (2, 3): {0b001, 0b010, 0b101, 0b110},
        (3,): {0b001, 0b011, 0b101, 0b111},
    }
    for lines, expected in table.items():
        assert paper.flip_states(ds.lines_to_mask(lines, 3), 3) == expected


def test_flip_states_two_lines():
    assert paper.flip_states(ds.lines_to_mask([2], 2), 2) == brute_force_flips([2], 2) == {0b01, 0b11}


def test_flip_states_cardinality():
    for m in range(1, 7):
        for mask in range(1, 1 << m):
            assert len(paper.flip_states(mask, m)) == 1 << (m - 1)


def test_flip_states_pairwise_intersections():
    for m in range(2, 7):
        sets = {mask: paper.flip_states(mask, m) for mask in range(1, 1 << m)}
        for m1 in sets:
            for m2 in sets:
                if m1 < m2:
                    assert len(sets[m1] & sets[m2]) == 1 << (m - 2)


def test_flip_states_rejects_empty():
    with pytest.raises(ValueError):
        paper.flip_states(0, 3)


def brute_force_conditioned(lines, m):
    out = set()
    for j in range(1, 1 << m):
        bits = format(j, f"0{m}b")
        if all(int(bits[k - 1]) for k in lines):
            out.add(j)
    return out


def test_conditioned_states_examples():
    assert paper.conditioned_states(ds.lines_to_mask([1, 3], 3), 3) == {0b101, 0b111}
    assert paper.conditioned_states(ds.lines_to_mask([1], 2), 2) == brute_force_conditioned([1], 2) == {0b10, 0b11}
    assert paper.conditioned_states(ds.lines_to_mask([1, 2], 2), 2) == {0b11}


def test_conditioned_states_cardinality():
    for m in range(1, 7):
        for mask in range(1, 1 << m):
            size = bin(mask).count("1")
            assert len(paper.conditioned_states(mask, m)) == 1 << (m - size)


def test_conditioned_states_rejects_empty():
    with pytest.raises(ValueError):
        paper.conditioned_states(0, 2)


def test_subset_lines_rejects_a_mask_outside_the_lines():
    for mask in (0b111, -1):
        with pytest.raises(ds.DimensionError):
            ds.subset_lines(mask, 2)


def test_state_sets_reject_a_mask_outside_the_lines():
    for states in (paper.flip_states, paper.conditioned_states):
        with pytest.raises(ds.DimensionError):
            states(8, 3)


def test_mask_line_round_trip():
    for m in range(1, 7):
        for mask in range(1 << m):
            assert ds.lines_to_mask(ds.subset_lines(mask, m), m) == mask


def test_lines_to_mask_rejects_out_of_range():
    with pytest.raises(ValueError):
        ds.lines_to_mask([3], 2)

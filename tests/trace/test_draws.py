"""Tests for the raw-word draw contract (`repro.trace.draws`).

The transforms are checked against pinned values: hand-picked words
through :class:`RawDraws`, and the first words of a seeded PCG64 through
all three ways to draw, which must agree with each other value for value
and leave the bit generator in the same state.
"""

import numpy as np
import pytest

from repro.trace.draws import (
    DOUBLE,
    RawCursor,
    RawDraws,
    bounded_threshold,
    draw_template,
)

#: The first four raw words of ``PCG64(123)``: the stream every value
#: below is a function of.
PCG64_123_WORDS = [0xAEAE9C9903F3E9CD, 0x0DC736DB97CB6D23,
                   0x3869812EE8B9EA96, 0x2F32FDB1414D8C05]


class Words:
    """A stand-in bit generator serving fixed words."""

    def __init__(self, words):
        self._words = iter(words)

    def random_raw(self):
        return next(self._words)


def rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def one_at_a_time(seed, template, k):
    """``template`` drawn slot by slot through :class:`RawDraws`, with the
    pending half written back as the trace kernels do."""
    generator = rng(seed)
    draws = RawDraws(generator.bit_generator)
    columns = [[] for _ in template]
    for _ in range(k):
        for j, slot in enumerate(template):
            columns[j].append(draws.next_double() if slot == DOUBLE
                              else draws.next_bounded(slot))
    state = generator.bit_generator.state
    state["has_uint32"] = int(draws.pending is not None)
    state["uinteger"] = (draws.stale if draws.pending is None
                         else draws.pending)
    generator.bit_generator.state = state
    return columns, generator


def test_pcg64_words_are_pinned():
    assert rng(123).bit_generator.random_raw(4).tolist() == PCG64_123_WORDS


class TestTransforms:
    def test_double_is_the_top_53_bits(self):
        draws = RawDraws(Words([0, (1 << 64) - 1, 1 << 11]))
        assert draws.next_double() == 0.0
        assert draws.next_double() == 1.0 - 2.0 ** -53
        assert draws.next_double() == 2.0 ** -53

    def test_bounded_takes_the_low_half_then_the_high_half(self):
        draws = RawDraws(Words([(3 << 32) | 0x80000000]))
        assert draws.next_bounded(4) == 2          # 0x80000000 * 4 >> 32
        assert draws.pending == 3
        assert draws.next_bounded(1 << 31) == 1    # 3 * 2**31 >> 32
        assert draws.pending is None

    def test_double_leaves_the_pending_half(self):
        draws = RawDraws(Words([5 << 32, 1 << 11]))
        assert draws.next_bounded(2) == 0
        assert draws.next_double() == 2.0 ** -53
        assert draws.pending == 5
        assert draws.next_bounded(1 << 32) == 5

    def test_lemire_rejection_consumes_another_half(self):
        # A half of 0 gives a product whose low 32 bits (0) fall below
        # 2**32 % 248 = 128: rejected, and the pending high half is used.
        assert bounded_threshold(248) == 128
        draws = RawDraws(Words([7 << 32]))
        assert draws.next_bounded(248, 128) == (7 * 248) >> 32
        assert draws.pending is None
        assert draws.stale == 7

    def test_power_of_two_threshold_is_zero(self):
        assert bounded_threshold(1024) == 0
        assert bounded_threshold(1 << 32) == 0

    def test_pinned_values_from_the_seeded_stream(self):
        draws = RawDraws(np.random.PCG64(123))
        assert draws.next_double() == 0.6823518632481435
        assert draws.next_bounded(1024) == 607     # low half of word 1
        assert draws.next_bounded(64) == 3         # its high half
        assert draws.next_double() == 0.22035987277261138


class TestTemplate:
    def test_pinned_columns_and_end_state(self):
        generator = rng(123)
        columns = draw_template(generator, [DOUBLE, 1024, 64], 3)
        assert [column.tolist() for column in columns] == [
            [0.6823518632481435, 0.22035987277261138, 0.17590590108503035],
            [607, 261, 356],
            [3, 11, 51]]
        state = generator.bit_generator.state
        assert state["has_uint32"] == 0
        assert state["uinteger"] == 3487919347

    @pytest.mark.parametrize("template", [
        [DOUBLE],                                   # doubles only
        [1024],                                     # single int: parity flips
        [1024, 1024],                               # even ints: parity stable
        [4096, 4096, 4096, DOUBLE, DOUBLE],         # int_compute schedule
        [2048, DOUBLE, 2048, DOUBLE, DOUBLE, 64],   # branchy-style mix
    ])
    @pytest.mark.parametrize("k", [1, 2, 7, 64])
    def test_equals_one_draw_at_a_time(self, template, k):
        expected, reference = one_at_a_time(5, template, k)
        generator = rng(5)
        columns = draw_template(generator, template, k)
        assert [column.tolist() for column in columns] == expected
        assert generator.bit_generator.state == reference.bit_generator.state

    def test_chunks_compose(self):
        template = [4096, DOUBLE, 64]
        whole = rng(7)
        expected = draw_template(whole, template, 5)
        split = rng(7)
        parts = [draw_template(split, template, n) for n in (1, 3, 1)]
        for j in range(len(template)):
            assert np.concatenate([part[j] for part in parts]).tolist() == \
                expected[j].tolist()
        assert split.bit_generator.state == whole.bit_generator.state

    def test_zero_fresh_words_served_from_the_pending_half(self):
        # k=1 with a single bounded slot and a pending half consumes no
        # fresh word (regression: this used to index an empty block).
        generator = rng(77)
        draw_template(generator, [8], 1)            # leaves a half pending
        before = generator.bit_generator.state
        (column,) = draw_template(generator, [16], 1)
        assert column.tolist() == [(before["uinteger"] * 16) >> 32]
        after = generator.bit_generator.state
        assert after["state"] == before["state"]
        assert after["has_uint32"] == 0

    def test_doubles_keep_the_pending_half(self):
        generator = rng(11)
        draw_template(generator, [256], 1)          # leaves a half pending
        pending = generator.bit_generator.state["uinteger"]
        draw_template(generator, [DOUBLE, DOUBLE], 2)
        state = generator.bit_generator.state
        assert (state["has_uint32"], state["uinteger"]) == (1, pending)

    def test_rejects_a_span_that_could_reject(self):
        with pytest.raises(ValueError, match="power of two"):
            draw_template(rng(0), [100], 4)

    def test_empty_chunk_is_a_noop(self):
        generator = rng(3)
        before = generator.bit_generator.state
        assert all(len(c) == 0 for c in draw_template(generator, [DOUBLE, 64], 0))
        assert generator.bit_generator.state == before


class TestRawCursor:
    def test_mixed_draws_equal_one_at_a_time(self):
        reference = rng(42)
        draws = RawDraws(reference.bit_generator)
        expected = [(draws.next_double(), draws.next_bounded(2048),
                     8 + draws.next_bounded(248, 128)) for _ in range(10)]
        generator = rng(42)
        cursor = RawCursor(generator, 40)
        got = [(cursor.next_double(), cursor.next_bounded(2048),
                8 + cursor.next_bounded(248, 128)) for _ in range(10)]
        cursor.finalize()
        assert got == expected
        state = generator.bit_generator.state
        assert state["state"] == reference.bit_generator.state["state"]
        assert state["has_uint32"] == int(draws.pending is not None)

    def test_finalize_hands_back_unused_words(self):
        generator = rng(123)
        cursor = RawCursor(generator, 100)
        assert cursor.next_double() == 0.6823518632481435
        assert cursor.next_bounded(1024) == 607
        cursor.finalize()
        state = generator.bit_generator.state
        assert state["has_uint32"] == 1
        assert state["uinteger"] == PCG64_123_WORDS[1] >> 32
        # Two words consumed; the next fresh word is the third.
        assert generator.bit_generator.random_raw() == PCG64_123_WORDS[2]

    def test_pending_half_consumed_first(self):
        generator = rng(123)
        draw_template(generator, [1024], 1)         # word 0's high half pends
        cursor = RawCursor(generator, 8)
        assert cursor.next_bounded(1 << 32) == PCG64_123_WORDS[0] >> 32
        cursor.finalize()
        assert generator.bit_generator.random_raw() == PCG64_123_WORDS[1]

    def test_double_finalize_is_idempotent(self):
        generator = rng(5)
        cursor = RawCursor(generator, 10)
        cursor.next_double()
        cursor.finalize()
        state = generator.bit_generator.state
        cursor.finalize()
        assert generator.bit_generator.state == state

"""Fixtures shared by the test modules."""

import pytest

from ucadiv import channel


@pytest.fixture
def used_blocks(monkeypatch):
    """The ``block`` of every ``channel.draw_tap_blocks`` call, in order.

    The Monte-Carlo kernel passes its block size there, so a test reads
    the block actually used instead of restating how it is chosen.
    """
    blocks, draw = [], channel.draw_tap_blocks

    def spy(n, l, seed, indices, block):
        blocks.append(block)
        return draw(n, l, seed, indices, block)

    monkeypatch.setattr(channel, "draw_tap_blocks", spy)
    return blocks

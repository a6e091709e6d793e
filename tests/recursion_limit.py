"""Run code under a recursion limit a fixed margin above the current stack."""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator


def stack_depth() -> int:
    """Number of frames on the caller's stack, the caller included."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


@contextmanager
def recursion_margin(frames: int) -> Iterator[None]:
    """Allow only ``frames`` more frames than the caller's stack holds."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)

import numpy as np
import pytest


@pytest.fixture
def perturbed_stack():
    """make(rng, x, rows) -> (rows, x.size) stack of parameter vectors near
    x: x itself, rows with a zero-norm and a 1e-13-norm axis (a pure
    translation to the kernel, degenerate to the metrics), one whose axes
    are all zero, and random perturbations small and large."""

    def make(rng, x, rows=8):
        stack = x + rng.normal(scale=0.1, size=(rows, x.size))
        twists = stack.reshape(rows, -1, 6)        # a view: edits reach stack
        stack[0] = x
        twists[1, 0, :3] = 0.0
        tiny = rng.normal(size=3)
        twists[2, -1, :3] = 1e-13 * tiny / np.linalg.norm(tiny)
        twists[3, :, :3] = 0.0
        stack[4] = x + rng.normal(scale=2.0, size=x.size)
        return stack

    return make

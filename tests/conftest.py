import sys
import pathlib

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(pathlib.Path(__file__).parent))

# One profile for every property test: no per-example deadline (shared
# hosts make timings noisy), and a failure prints the blob that
# reproduces it with @reproduce_failure.
settings.register_profile("tier1", deadline=None, print_blob=True)
settings.load_profile("tier1")

from reference import transform_locals  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def zeroize_group(ir, group, indices):
    """Zero every member slice of a group at the given canonical indices;
    returns a modified copy."""
    z = ir.copy()
    for m in group.members:
        comp = z.component(m.half.component_id)
        for sl in m.half.scheme.slices:
            mv = np.moveaxis(z.weights[comp.params[sl.role]], sl.axis, 0)
            for k in indices:
                for local in transform_locals(m.transform, k, m.half.channels):
                    mv[local] = 0.0
    return z


def alternating_selection(group, min_keep=1):
    """Every other selection unit, respecting min_keep; spread so that no
    concat/split port is emptied on sane models."""
    sel = []
    for u in group.units[::2]:
        if group.width - len(sel) - len(u) >= min_keep:
            sel.extend(u)
    return tuple(sorted(sel))


def oracle_models():
    """(name, IR) for the 8 bundled models and random_ir seeds 0-29: the
    models every loop-based oracle is compared on."""
    from grouprune import zoo
    from grouprune.random_nets import random_ir

    for name, build in sorted(zoo.BUNDLED.items()):
        yield name, build(seed=11)
    for seed in range(30):
        yield f"random_ir({seed})", random_ir(seed)


def tiny_smooth_net(seed, max_components=10):
    """Small everywhere-differentiable random net for gradient checks."""
    from grouprune.random_nets import random_ir

    return random_ir(seed, max_components=max_components, smooth=True,
                     max_channels=5, spatial_choices=(4,))

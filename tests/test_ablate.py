import numpy as np
import pytest

from grouprune import zoo
from grouprune.ablate import _uniform_ratio_for_speedup
from grouprune.dependency import build_depgraph
from grouprune.grouping import extract_groups
from grouprune.pruning import build_uniform_plan, prune, speedup


@pytest.mark.parametrize("target", [1.5, 2.0, 3.0])
def test_uniform_ratio_reaches_target_speedup(target):
    """Widths move in whole channels, so speedup is a step function of the
    ratio; the chosen ratio must sit on the reaching side of the step."""
    ir = zoo.residual_cnn(seed=0)
    groups = extract_groups(build_depgraph(ir))
    ratio = _uniform_ratio_for_speedup(ir, groups, target, "full-grouping",
                                       np.random.default_rng(1))
    plan = build_uniform_plan(ir, groups, ratio, "full-grouping")
    assert speedup(ir, prune(ir, plan, groups)) >= target

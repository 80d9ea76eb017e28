from dataclasses import replace

import numpy as np
import pytest

from swiptctl.control import Policy
from swiptctl.scenario import compile_scenario, desk_scenario


@pytest.fixture(scope="session")
def desk_cfg():
    return desk_scenario()


@pytest.fixture(scope="session")
def desk_compiled(desk_cfg):
    return compile_scenario(desk_cfg)


@pytest.fixture(scope="session")
def three_user_compiled():
    return compile_scenario(desk_scenario(k=3, q_max=1, e_max=2,
                                          calib_draws=80))


@pytest.fixture(scope="session")
def unpayable(desk_compiled):
    """The top action at every observation, with the harvest halved and
    the users' energy prices doubled and tripled: user 1 can never pay it,
    user 0 only every other slot. A (policy, compiled scenario) pair."""
    actions = desk_compiled.actions
    compiled = replace(desk_compiled, actions=replace(
        actions, used_units=actions.used_units * [2, 3],
        harvested=actions.harvested // 2))
    policy = Policy(action_of=np.full(compiled.space.size,
                                      compiled.n_actions - 1),
                    scenario_hash=compiled.scenario_hash, kind="top")
    return policy, compiled

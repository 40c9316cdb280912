import pytest

from cbsel.datagen import WorldConfig, generate


@pytest.fixture(scope="session")
def large_pool():
    """One session pool shaped like the large-pool benchmark's (15,696 rows, D = 16)."""
    world = WorldConfig(num_sessions=1, classes_per_session=100, dim=16,
                        pool_per_class=400, test_per_class=1, separation=3.0,
                        imbalance_ratio=10.0, sigma=0.2, seed=1)
    store, plan = generate(world)
    return store.subset(plan.sessions[0].pool_ids)

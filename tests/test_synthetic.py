import math

import numpy as np
import pytest

from chronolink import (
    ConfigError,
    SynthConfig,
    chronological_split,
    consecutiveness,
    direct_recurrency_degree,
    generate,
    recurrency_degree,
)
from chronolink.synthetic import relation_type_pair


def test_seed_determinism():
    cfg = SynthConfig(node_count=30, relation_count=3, timestep_count=25, rate=6,
                      p_rep=0.5, run_length=0.3, seed=42)
    assert generate(cfg) == generate(cfg)


def test_different_seeds_differ():
    base = dict(node_count=30, relation_count=3, timestep_count=25, rate=6, p_rep=0.5)
    assert generate(SynthConfig(seed=1, **base)) != generate(SynthConfig(seed=2, **base))


@pytest.mark.parametrize("seed", range(8))
def test_no_repeats_means_zero_drec(seed):
    cfg = SynthConfig(node_count=25, relation_count=2, timestep_count=30, rate=5,
                      p_rep=0.0, run_length=0.0, seed=seed)
    g = generate(cfg)
    train, valid, test, _ = chronological_split(g)
    assert direct_recurrency_degree(g, test) == 0.0
    assert consecutiveness(g) == 1.0


@pytest.mark.parametrize("seed", range(4))
def test_full_persistence_forces_recurrence(seed):
    # every triple born at t=0 and re-fired forever: maximal runs, full recurrence
    cfg = SynthConfig(node_count=25, relation_count=2, timestep_count=20, rate=25,
                      p_rep=1.0, birth_window=1, seed=seed)
    g = generate(cfg)
    assert consecutiveness(g) == cfg.timestep_count
    train, valid, test, _ = chronological_split(g)
    assert recurrency_degree(g, test) == 1.0
    assert direct_recurrency_degree(g, test) == 1.0


def test_drec_monotone_in_p_rep():
    # Monte Carlo over seeds: average DRec grows with the repeat probability
    def mean_drec(p_rep):
        values = []
        for seed in range(10):
            cfg = SynthConfig(node_count=25, relation_count=2, timestep_count=30,
                              rate=5, p_rep=p_rep, seed=seed)
            g = generate(cfg)
            train, valid, test, _ = chronological_split(g)
            values.append(direct_recurrency_degree(g, test))
        return float(np.mean(values))

    sweep = [mean_drec(p) for p in (0.1, 0.4, 0.7)]
    assert sweep[0] < sweep[1] < sweep[2]


def test_run_length_bursts_raise_consecutiveness():
    base = dict(node_count=30, relation_count=2, timestep_count=30, rate=5,
                p_rep=0.0, seed=5)
    short = generate(SynthConfig(run_length=0.0, **base))
    bursty = generate(SynthConfig(run_length=0.7, **base))
    assert consecutiveness(bursty) > consecutiveness(short)


def test_thg_type_closure():
    cfg = SynthConfig(node_count=24, relation_count=4, timestep_count=20,
                      node_type_count=3, rate=6, seed=2)
    g = generate(cfg)
    assert g.is_heterogeneous
    for s, r, o, t in g:
        s_type, o_type = relation_type_pair(r, 3)
        assert g.node_types[s] == s_type
        assert g.node_types[o] == o_type


def test_birth_window_limits_novelty():
    cfg = SynthConfig(node_count=25, relation_count=2, timestep_count=20, rate=10,
                      p_rep=0.9, birth_window=5, seed=3)
    g = generate(cfg)
    first_seen = {}
    for s, r, o, t in g:
        first_seen.setdefault((s, r, o), t)
    assert max(first_seen.values()) < 5


def test_config_validation():
    with pytest.raises(ConfigError):
        SynthConfig(node_count=0, relation_count=1, timestep_count=1)
    with pytest.raises(ConfigError):
        SynthConfig(node_count=5, relation_count=1, timestep_count=1, p_rep=1.5)
    with pytest.raises(ConfigError):
        SynthConfig(node_count=2, relation_count=1, timestep_count=1, node_type_count=5)
    with pytest.raises(ConfigError):
        SynthConfig(node_count=2, relation_count=1, timestep_count=1, rate=-1)


@pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
def test_config_refuses_a_non_finite_rate(rate):
    with pytest.raises(ConfigError, match="rate must be finite and >= 0"):
        SynthConfig(node_count=5, relation_count=1, timestep_count=3, rate=rate)


def test_config_file_round_trip(tmp_path):
    cfg = SynthConfig(node_count=12, relation_count=2, timestep_count=9,
                      node_type_count=2, rate=3.5, p_rep=0.25, run_length=0.1,
                      seed=99, birth_window=4)
    path = tmp_path / "synth.cfg"
    cfg.to_file(path)
    assert SynthConfig.from_file(path) == cfg
    no_birth = SynthConfig(node_count=12, relation_count=2, timestep_count=9)
    no_birth.to_file(path)
    assert SynthConfig.from_file(path).birth_window is None


def test_config_file_missing_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("node_count = 5\n")
    with pytest.raises(ConfigError):
        SynthConfig.from_file(path)

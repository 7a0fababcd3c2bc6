"""Fuzzing of experiment-config ingestion: a bad value exits through ValueError only."""

import copy
import math

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from qsarq.feature_maps import FeatureMapSpec
from qsarq.kernels import KernelConfig
from qsarq.pipeline import (AnnealEntry, ExperimentConfig, RegEntry, SvmEntry,
                            load_experiment_config)
from test_cli import write_config

CONFIG = {
    "input": "data.csv", "seed": 3, "split": 0.7, "activity_cutoff": 6.0, "pca_k": None,
    "models": [
        {"name": "q", "kind": "svm", "C": 2.0, "jitter": 0.01,
         "kernel": {"kind": "quantum_shots", "shots": 64, "rng_seed": 1,
                    "feature_map": {"family": "zz", "reps": 1, "entanglement": "full"}}},
        {"name": "ls", "kind": "reg_ls", "ridge": 0.01, "target": "activity"},
        {"name": "sa", "kind": "reg_anneal", "basis": "poly2", "iterations": 50, "t0": 0.5},
    ],
}
# each section of CONFIG, and the dataclass whose field names may key it
SECTIONS = {
    "config": (lambda c: c, ExperimentConfig),
    "svm entry": (lambda c: c["models"][0], SvmEntry),
    "reg entry": (lambda c: c["models"][1], RegEntry),
    "anneal entry": (lambda c: c["models"][2], AnnealEntry),
    "kernel": (lambda c: c["models"][0]["kernel"], KernelConfig),
    "feature map": (lambda c: c["models"][0]["kernel"]["feature_map"], FeatureMapSpec),
}
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
SCALARS = (st.none() | st.booleans() | st.integers() | TEXT
           | st.sampled_from([10**400, -10**400, 2**63, -1, 0])
           | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 1e308]))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(TEXT | st.integers(), inner, max_size=3),
                      max_leaves=6)


@st.composite
def mutated_configs(draw):
    """CONFIG with one key of one section set to an arbitrary value."""
    config = copy.deepcopy(CONFIG)
    pick, cls = SECTIONS[draw(st.sampled_from(sorted(SECTIONS)))]
    section = pick(config)
    names = sorted({*section, *cls.__dataclass_fields__})
    section[draw(st.sampled_from(names) | TEXT | st.integers())] = draw(VALUES)
    return config


@settings(max_examples=300, deadline=None)
@given(mutated_configs())
def test_config_ingestion_raises_only_value_errors(tmp_path_factory, config):
    path = tmp_path_factory.getbasetemp() / "fuzz.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    try:  # loading checks every setting, each svm row's kernel included
        load_experiment_config(path)
    except ValueError:
        pass


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML is built without libyaml")
def test_libyaml_and_python_loaders_give_equal_configs(tmp_path, monkeypatch):
    path = write_config(tmp_path / "exp.yaml")
    used, load = [], yaml.load
    monkeypatch.setattr(yaml, "load", lambda stream, Loader: used.append(Loader)
                        or load(stream, Loader))
    fast = load_experiment_config(path)
    monkeypatch.setattr(yaml, "__with_libyaml__", False)
    assert load_experiment_config(path) == fast
    assert [loader.__base__ for loader in used] == [yaml.CSafeLoader, yaml.SafeLoader]


def test_a_key_given_again_beside_a_merge_key_is_not_repeated(tmp_path):
    # YAML's merge key copies a mapping's keys, and a key of the mapping itself wins
    path = tmp_path / "exp.yaml"
    path.write_text("input: data.csv\nseed: 1\nsplit: 0.7\nmodels:\n"
                    "  - &ls {name: ls, kind: reg_ls, ridge: 0.5}\n"
                    "  - {<<: *ls, name: ls2, ridge: 2.0}\n", encoding="utf-8")
    models = load_experiment_config(path).models
    assert [(m.name, m.ridge) for m in models] == [("ls", 0.5), ("ls2", 2.0)]


# YAML's float needs both a dot and a signed exponent: each of the first three lacks one
@pytest.mark.parametrize("written, spelled", [("1e-3", "0.001"), ("1e308", "1.0e+308"),
                                              ("1.0e308", "1.0e+308"), ("abc", None)])
def test_a_number_yaml_reads_as_a_string_is_refused_saying_how_to_write_it(tmp_path, written,
                                                                         spelled):
    path = tmp_path / "exp.yaml"
    config = ("input: data.csv\nseed: 1\nsplit: 0.7\nmodels:\n"
              "  - {{name: ls, kind: reg_ls, ridge: {}}}\n")
    path.write_text(config.format(written), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load_experiment_config(path)
    message = f"ridge must be a finite number, got {written!r}"
    if spelled is None:
        assert str(info.value).endswith(message)
    else:
        assert str(info.value).endswith(f"{message} (to YAML, a number with an exponent needs "
                                        f"a dot and a signed exponent: write {spelled})")
        path.write_text(config.format(spelled), encoding="utf-8")
        assert load_experiment_config(path).models[0].ridge == float(written)

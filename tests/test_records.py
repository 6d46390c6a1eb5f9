"""The result and configuration records are immutable named tuples."""

import math
import re

import pytest

from privquant import (
    CodewordPolicy,
    ConfigurationError,
    DatasetStats,
    Decomposition,
    LagrangianConfig,
    Quantization,
    Symbol,
    UtilityChoice,
)


@pytest.mark.parametrize("record, expected", [
    (Symbol("x1", 0.5), "Symbol(id='x1', value=0.5)"),
    (DatasetStats(8, 6, 7, 8, 8),
     "DatasetStats(record_count=8, distinct_s=6, distinct_x=7, distinct_pairs=8, "
     "singleton_pairs=8)"),
    # x_values stays out of a quantization's repr.
    (Quantization((frozenset({0}), frozenset({1, 2})), CodewordPolicy.CENTROID, (0.5, 1.0, 2.0),
                  (0.5, 1.5)),
     "Quantization(clusters=(frozenset({0}), frozenset({1, 2})), "
     "policy=<CodewordPolicy.CENTROID: 'centroid'>, codewords=(0.5, 1.5))"),
    (LagrangianConfig(0.3, UtilityChoice.u2()),
     "LagrangianConfig(lam=0.3, utility=UtilityChoice(kind=<UtilityKind.U2_MAX_DISTORTION: "
     "'u2'>), policy=<CodewordPolicy.CENTROID: 'centroid'>)"),
], ids=["Symbol", "DatasetStats", "Quantization", "LagrangianConfig"])
def test_literal_reprs(record, expected):
    assert re.sub(r" at 0x[0-9a-f]+>", ">", repr(record)) == expected


@pytest.mark.parametrize("lam", [-1.0, math.nan], ids=["negative", "nan"])
def test_lagrangian_config_checks_lambda_however_it_is_given(lam):
    u = UtilityChoice.u1()
    makers = [
        lambda: LagrangianConfig(lam, u),
        lambda: LagrangianConfig(lam=lam, utility=u),
        lambda: LagrangianConfig(0.0, u)._replace(lam=lam),
    ]
    for make in makers:
        with pytest.raises(ConfigurationError, match="^lambda must be a finite non-negative real$"):
            make()


def test_records_are_immutable_tuples():
    sym = Symbol("x1", 0.5)
    assert sym == ("x1", 0.5)
    assert sym._asdict() == {"id": "x1", "value": 0.5}
    assert sym._replace(value=1.0) == Symbol("x1", 1.0)
    with pytest.raises(AttributeError):
        sym.value = 1.0
    # A decomposition's len counts its blocks, and _replace still builds one.
    dec = Decomposition((frozenset({0}), frozenset({1, 2})))
    assert len(dec) == 2
    assert dec._replace(blocks=dec.blocks[:1]) == Decomposition((frozenset({0}),))

"""Experiment F1 — Figure 1: the Section-2 example history.

Regenerates the figure's m-operations and asserts every relation
instance the text names; benchmarks building the history and deriving
all four orders.
"""

from benchmarks.report import exp_f1
from repro.core import (
    mlin_order,
    mnorm_order,
    msc_order,
)
from repro.workloads import figure1


def test_f1_relation_instances_hold():
    results = exp_f1()
    assert all(results.values()), results


def test_f1_benchmark_order_derivation(benchmark):
    h = figure1()

    def derive():
        return (msc_order(h), mnorm_order(h), mlin_order(h))

    # The builders return cover-edge generating sets (m-norm holds
    # 2->4 where m-lin holds 2->5, 5->4), so m-SC ⊆ m-norm ⊆ m-lin is
    # a statement about the orders they generate: the closures.
    msc, mnorm, mlin = (
        order.transitive_closure() for order in benchmark(derive)
    )
    assert msc.issubset(mnorm)
    assert mnorm.issubset(mlin)


def test_f1_benchmark_construction(benchmark):
    h = benchmark(figure1)
    assert len(h) == 5

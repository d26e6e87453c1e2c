"""Core model of Mittal & Garg's multi-object consistency framework.

Sub-modules:

* :mod:`repro.core.operation` — operations and m-operations.
* :mod:`repro.core.history` — histories and the reads-from map.
* :mod:`repro.core.relations` — relation algebra.
* :mod:`repro.core.index` — shared per-history derived-data layer and
  the :data:`CONDITIONS` table.
* :mod:`repro.core.plan` — the certified forward legality scan.
* :mod:`repro.core.orders` — process/reads-from/real-time/object order.
* :mod:`repro.core.legality` — conflict, interference, legality.
* :mod:`repro.core.constraints` — OO/WW/WO constraints, ``~rw``, ``~H+``.
* :mod:`repro.core.admissibility` — exact (NP-complete) admissibility.
* :mod:`repro.core.consistency` — the checker of every condition.
* :mod:`repro.core.refutation` — why a violated verdict is violated.
"""

from repro.core.admissibility import (
    AdmissibilityResult,
    SearchBudgetExceeded,
    SearchStats,
    check_admissible,
    count_legal_linearizations,
)
from repro.core.consistency import (
    ConsistencyVerdict,
    ConstraintNotSatisfied,
    check_condition,
    check_m_causal_consistency,
    check_m_linearizability,
    check_m_normality,
    check_m_sequential_consistency,
    is_m_causally_consistent,
    is_m_linearizable,
    is_m_normal,
    is_m_sequentially_consistent,
)
from repro.core.constraints import (
    constraint_report,
    extended_relation,
    is_concurrent_write_free,
    is_data_race_free,
    rw_pairs,
    satisfies_oo,
    satisfies_wo,
    satisfies_ww,
)
from repro.core.history import History
from repro.core.index import CONDITIONS, Condition, HistoryIndex, IndexStats
from repro.core.legality import (
    conflict,
    interfere,
    interfering_triples,
    is_legal,
    is_legal_sequence,
)
from repro.core.monitor import (
    LiveMonitor,
    MonitorUsageError,
    verify_stream,
)
from repro.core.operation import (
    INIT_UID,
    MOperation,
    Operation,
    OpKind,
    initial_mop,
    make_mop,
    read,
    write,
)
from repro.core.plan import ScanResult, run_scan
from repro.core.orders import (
    base_order,
    mlin_order,
    mnorm_order,
    msc_order,
    object_order,
    process_order,
    reads_from_order,
    real_time_order,
)
from repro.core.refutation import Refutation
from repro.core.relations import Relation, relation_from_sequence
from repro.core.serialize import (
    history_from_dict,
    history_from_json,
    history_to_dict,
    history_to_json,
    load_history,
    save_history,
)

__all__ = [
    "AdmissibilityResult",
    "CONDITIONS",
    "Condition",
    "ConsistencyVerdict",
    "ConstraintNotSatisfied",
    "History",
    "HistoryIndex",
    "INIT_UID",
    "IndexStats",
    "LiveMonitor",
    "MOperation",
    "MonitorUsageError",
    "OpKind",
    "Operation",
    "Refutation",
    "Relation",
    "ScanResult",
    "SearchBudgetExceeded",
    "SearchStats",
    "base_order",
    "check_admissible",
    "check_condition",
    "check_m_linearizability",
    "check_m_normality",
    "check_m_causal_consistency",
    "check_m_sequential_consistency",
    "conflict",
    "constraint_report",
    "count_legal_linearizations",
    "extended_relation",
    "history_from_dict",
    "history_from_json",
    "history_to_dict",
    "history_to_json",
    "initial_mop",
    "interfere",
    "interfering_triples",
    "is_concurrent_write_free",
    "is_data_race_free",
    "is_legal",
    "is_legal_sequence",
    "is_m_causally_consistent",
    "is_m_linearizable",
    "is_m_normal",
    "is_m_sequentially_consistent",
    "load_history",
    "make_mop",
    "mlin_order",
    "mnorm_order",
    "msc_order",
    "object_order",
    "process_order",
    "read",
    "reads_from_order",
    "real_time_order",
    "relation_from_sequence",
    "run_scan",
    "save_history",
    "rw_pairs",
    "satisfies_oo",
    "satisfies_wo",
    "satisfies_ww",
    "verify_stream",
    "write",
]

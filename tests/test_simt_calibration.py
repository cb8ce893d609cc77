"""The analytic SIMT cost model held to the simulator's committed measurements.

``benchmarks/results/simt_ratios.txt`` holds what the instruction-level
simulator (since deleted) measured at commit 325074a for every constant
the analytic model assumes.  These tests recompute each row's analytic
charge from the live per-event charges of
:class:`~repro.simt.cost.CostModel` (distances through
:func:`~repro.core.gpu_kernel.price_block`, the pricer every search
uses) for every ``DeviceSpec`` preset and compare it with the simulated
value by the row's kind:

* ``exact`` — counts (transactions, ``shfl_down`` issues, bank-conflict
  cycles) match with tolerance 0;
* ``band`` — cycle costs of single-lane work lie in **[1×, 2×]** of the
  analytic constant: a lone simulated warp exposes shared-memory latency
  the analytic model amortizes over resident warps;
* ``range`` — ratios of two measurements lie in [½, 2];
* ``record`` — kept for the reader and for the ablation claims below.

Arithmetic only: nothing here simulates.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.config import SearchConfig
from repro.core.gpu_kernel import (
    RECORD_COLUMNS,
    DistanceProfile,
    Placement,
    price_block,
)
from repro.simt import cost as cost_module
from repro.simt.cost import CostModel, transactions
from repro.simt.device import DEVICE_PRESETS
from repro.simt.memory import COALESCED_TRANSACTION_BYTES

TABLE = Path(__file__).resolve().parent.parent / "benchmarks" / "results" / "simt_ratios.txt"

#: ``(low, high)`` bounds on simulated / analytic, per row kind.
BOUNDS = {"band": (1.0, 2.0), "range": (0.5, 2.0)}
KINDS = ("exact", "band", "range", "record")


def read_table() -> dict:
    """Row name -> ``(kind, simulated, analytic)`` as committed."""
    lines = [
        line for line in TABLE.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    assert lines[0].split() == ["row", "kind", "simulated", "analytic", "ratio"]
    rows = {}
    for line in lines[1:]:
        name, kind, simulated, analytic, _ = line.split()
        rows[name] = (kind, float(simulated), float(analytic))
    return rows


def analytic_charges(device) -> dict:
    """Row name -> the live analytic model's charge for that row."""
    cost = CostModel(device)
    config = SearchConfig()

    def lane(count, metric="l2", words=64):
        """Stage cycles of a lane whose record holds one ``count``."""
        block = np.zeros((1, len(RECORD_COLUMNS)), dtype=np.int64)
        block[0, RECORD_COLUMNS.index(count)] = 1
        priced = price_block(
            block, config, Placement(True, True, True, 0),
            DistanceProfile.for_metric(metric, words), 16, device,
        )
        return priced.stage_cycles

    def distance(metric, words):
        """Cycles of one bulk distance: a lane that scored one candidate."""
        return lane("distance_computations", metric, words)["distance"]

    lanes = device.warp_size
    hide = device.global_latency_cycles / cost.latency()
    charges = {
        "scan.cycles_per_op": cost.sequential(1),
        "heap_push.cycles_per_level": cost.sequential(3),
        "probe.cycles": lane("visited_tests")["locate"],
        "hamming128.cycles": distance("hamming", 4),
        "float784.cycles": distance("l2", 784),
        "float784_over_hamming128": distance("l2", 784) / distance("hamming", 4),
    }
    for metric, dim in (("l2", 32), ("l2", 48), ("l2", 64), ("l2", 128),
                        ("ip", 64), ("cosine", 64), ("hamming", 8)):
        charges[f"{metric}.d{dim}.transactions"] = cost_module.transactions(4 * dim)
    for metric, dim, count in (("l2", 64, 1), ("ip", 64, 1), ("hamming", 8, 1),
                               ("cosine", 64, 3)):
        charges[f"{metric}.d{dim}.shfl_down"] = cost.reduce(count)
    for dim in (32, 48, 64, 128):
        # Shared accesses are charged conflict-free.
        charges[f"l2.d{dim}.bank_conflict_cycles"] = 0
    for stride in (1, 2, 4, 32):
        # A scattered read is one transaction per access.
        charges[f"stride{stride}.transactions"] = (
            cost.scattered_read(lanes) / cost.latency() if stride == lanes
            else cost_module.transactions(4 * lanes * stride)
        )
    for n in (1, 4, 16, 32):
        charges[f"warps{n}.cycles_per_warp"] = distance("l2", 128)
        charges[f"warps{n}.hiding"] = min(n, hide)
    return charges


def violations(device) -> dict:
    """Row name -> message, for each row whose simulated value breaks its
    kind's rule against the live charge on ``device``."""
    charges = analytic_charges(device)
    out = {}
    for name, (kind, simulated, _) in read_table().items():
        analytic = charges[name]
        if kind == "exact":
            ok = simulated == analytic
        elif kind in BOUNDS:
            low, high = BOUNDS[kind]
            ok = low * analytic <= simulated <= high * analytic
        else:
            ok = True
        if not ok:
            out[name] = f"{kind}: simulated {simulated:g} vs analytic {analytic:g}"
    return out


def _extra_transaction(num_bytes):
    """Counts one extra transaction per read at exact 128-byte multiples."""
    extra = np.asarray(num_bytes) % COALESCED_TRANSACTION_BYTES == 0
    return transactions(num_bytes) + extra.astype(np.int64)


def test_every_row_has_a_kind_and_a_charge():
    rows = read_table()
    assert {kind for kind, _, _ in rows.values()} <= set(KINDS)
    assert set(rows) == set(analytic_charges(DEVICE_PRESETS["v100"]))


@pytest.mark.parametrize("preset", sorted(DEVICE_PRESETS))
def test_analytic_model_matches_the_simulator(preset):
    assert violations(DEVICE_PRESETS[preset]) == {}


def test_recorded_analytic_column_is_the_live_v100_charge():
    charges = analytic_charges(DEVICE_PRESETS["v100"])
    for name, (_, _, recorded) in read_table().items():
        assert recorded == pytest.approx(charges[name], rel=1e-4), name


def test_ablation_claims_hold_over_the_table():
    """The cost-model ablation's claims, over the simulated column."""
    sim = {name: simulated for name, (_, simulated, _) in read_table().items()}
    # The coalescing rule the memory model assumes.
    assert sim["stride1.transactions"] == 1
    assert sim["stride32.transactions"] == 32
    assert sim["stride2.transactions"] == 2
    # Latency hiding grows with residency and saturates near the analytic
    # overlap factor (x16 streaming).
    assert sim["warps16.cycles_per_warp"] < sim["warps1.cycles_per_warp"] / 5
    assert sim["warps32.cycles_per_warp"] <= sim["warps16.cycles_per_warp"] * 1.1
    # Hashed distances are cheap (Fig. 14's throughput side).
    assert sim["hamming128.cycles"] * 3 < sim["float784.cycles"]


class TestKnownBadModels:
    """The pin must reject a model that drifted from the measurements."""

    def test_tripled_seq_op_cycles_is_caught(self):
        v100 = DEVICE_PRESETS["v100"]
        tripled = v100.with_overrides(seq_op_cycles=3 * v100.seq_op_cycles)
        assert {
            "scan.cycles_per_op", "heap_push.cycles_per_level", "probe.cycles",
        } <= set(violations(tripled))

    def test_extra_transaction_at_128_byte_multiples_is_caught(self, monkeypatch):
        monkeypatch.setattr(cost_module, "transactions", _extra_transaction)
        bad = violations(DEVICE_PRESETS["v100"])
        assert {
            "l2.d32.transactions", "l2.d64.transactions", "l2.d128.transactions",
            "stride1.transactions", "stride4.transactions",
        } <= set(bad)
        assert "l2.d48.transactions" not in bad  # 192 B: no extra

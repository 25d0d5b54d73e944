"""Fig. 13 — application goodput and in-network latency across device configs.

The sparse gradient-aggregation application of paper Fig. 7 is deployed on
five network configurations:

1. no programmable device (DPDK baseline — all aggregation at the server),
2. smartNIC only (sparsity filtering offloaded, aggregation at the server),
3. one Tofino switch (in-network aggregation),
4. two Tofino switches (aggregation with a larger parameter vector),
5. smartNIC + switch (sparsity filtering on the NIC, aggregation on the
   switch — the heterogeneous combination).

The emulator measures the traffic reduction each configuration achieves; the
modelled goodput is the 100 Gbps bottleneck divided by the surviving traffic
fraction (how much useful gradient data the fabric moves per unit of server
bandwidth).  The paper's shape to preserve: goodput rises monotonically from
configuration (1) to (5), and configurations that add a smartNIC hop pay more
in-network latency.
"""

from __future__ import annotations


from benchmarks.conftest import print_table
from repro.core import ClickINC
from repro.devices.registry import make_device
from repro.emulator.traffic import MLAggWorkload
from repro.topology.network import HostGroup, NetworkTopology

LINK_GBPS = 100.0
ROUNDS = 25
WORKERS = 8
BLOCK_NUM = 4
BLOCK_SIZE = 4
SPARSITY = 0.5

#: Compact in-network aggregation program (ClickINC source).  The structure
#: matches the MLAgg template but uses a single counter instead of a worker
#: bitmap, keeping it small enough to fit a single 12-stage Tofino — the
#: paper's single-switch configuration.
AGG_SOURCE = """\
cnt_t = Array(row=1, size=NUM_AGG, w=32)
data_t = Array(row=VEC_DIM, size=NUM_AGG, w=32)
f = Hash(type="crc_16", key=hdr.seq, ceil=NUM_AGG)
index = get(f, hdr.seq)
n = get(cnt_t, index)
n2 = n + 1
vals = get(data_t, index)
new_vals = vals + hdr.data
if n2 == NUM_WORKER:
    back(hdr={"data": "new_vals"})
    clear(cnt_t, index)
    clear(data_t, index)
else:
    write(cnt_t, index, n2)
    write(data_t, index, new_vals)
    drop()
"""

#: Sparse-block filter (the user extension of Fig. 7): all-zero blocks of the
#: gradient vector are removed from the packet before aggregation/forwarding.
SPARSE_SOURCE = """\
for i in range(BLOCK_NUM):
    sparse = 1
    for j in range(BLOCK_SIZE):
        if hdr.data[i * BLOCK_SIZE + j] != 0:
            sparse = 0
    if sparse == 1:
        del(hdr.data, i)
forward(hdr)
"""


def _topology(num_switches: int, with_nic: bool) -> NetworkTopology:
    """Rack-to-rack topology: [NIC] -> SW0 [-> SW1] with worker/PS groups."""
    topo = NetworkTopology(f"fig13_{num_switches}sw_{'nic' if with_nic else 'plain'}")
    previous = None
    first = None
    if with_nic:
        topo.add_device(make_device("nfp", "NIC0"), layer="tor", pod=0)
        previous = first = "NIC0"
    for index in range(num_switches):
        name = f"SW{index}"
        topo.add_device(make_device("tofino", name), layer="agg", pod=0)
        if previous is not None:
            topo.add_link(previous, name, capacity_gbps=LINK_GBPS)
        previous = name
        if first is None:
            first = name
    topo.add_host_group(HostGroup(name="workers", tor=first, role="client"))
    topo.add_host_group(HostGroup(name="ps", tor=previous, role="server"))
    return topo


def _constants(vec_dim: int) -> dict:
    return {
        "NUM_AGG": 1024,
        "VEC_DIM": vec_dim,
        "NUM_WORKER": WORKERS,
        "BLOCK_NUM": BLOCK_NUM,
        "BLOCK_SIZE": BLOCK_SIZE,
    }


def _header_fields(vec_dim: int) -> dict:
    return {"op": 8, "seq": 32, "bitmap": WORKERS, "data": 32 * vec_dim, "overflow": 1}


def _useful_traffic_fraction(metrics) -> float:
    """Fraction of offered bytes still carried as useful application data.

    Both packets delivered to the servers and results reflected back to
    the clients (e.g. aggregated gradients, cache replies) count as useful
    output; everything else was absorbed in the network.
    """
    if metrics.bytes_sent == 0:
        return 1.0
    return (metrics.bytes_delivered + metrics.bytes_reflected) / metrics.bytes_sent


def _run_config(num_switches: int, with_nic: bool, deploy_agg: bool,
                deploy_sparse: bool, vec_dim: int):
    topo = _topology(num_switches, with_nic)
    inc = ClickINC(topo, generate_code=False)
    sources = []
    if deploy_sparse:
        sources.append(("sparse_filter", SPARSE_SOURCE))
    if deploy_agg:
        sources.append(("agg", AGG_SOURCE))
    if sources:
        combined = "\n".join(src for _, src in sources)
        inc.deploy_source(
            combined,
            source_groups=["workers"],
            destination_group="ps",
            name="sparse_agg",
            constants=_constants(vec_dim),
            header_fields=_header_fields(vec_dim),
        )
    workload = MLAggWorkload(
        src_group="workers", dst_group="ps", num_workers=WORKERS,
        vector_dim=vec_dim, sparsity=SPARSITY, owner="sparse_agg",
    )
    metrics = inc.run_traffic(workload.packets(ROUNDS))
    # traffic that still needs end-host bandwidth: packets delivered to the
    # parameter server plus the aggregated results returned to the workers
    reduction = 1.0 - _useful_traffic_fraction(metrics)
    goodput = LINK_GBPS / max(0.05, 1.0 - min(0.95, reduction))
    return {
        "goodput": goodput,
        "latency_ns": metrics.mean_latency_ns,
        "reduction": reduction,
    }


def run_fig13():
    dim = BLOCK_NUM * BLOCK_SIZE
    return {
        "DPDK (no INC)": _run_config(1, False, deploy_agg=False,
                                     deploy_sparse=False, vec_dim=dim),
        "SmartNIC": _run_config(1, True, deploy_agg=False, deploy_sparse=True,
                                vec_dim=dim),
        "1 switch": _run_config(1, False, deploy_agg=True, deploy_sparse=False,
                                vec_dim=dim),
        "2 switches": _run_config(2, False, deploy_agg=True, deploy_sparse=False,
                                  vec_dim=2 * dim),
        "1 switch + SmartNIC": _run_config(1, True, deploy_agg=True,
                                           deploy_sparse=True, vec_dim=dim),
    }


def test_fig13_application_performance(benchmark):
    results = benchmark.pedantic(run_fig13, rounds=1, iterations=1)
    rows = [
        [name,
         f"{data['goodput']:.0f}",
         f"{data['latency_ns']:.0f}",
         f"{100 * data['reduction']:.1f}%"]
        for name, data in results.items()
    ]
    print_table(
        "Fig. 13: sparse gradient aggregation — goodput and in-network latency",
        ["Configuration", "goodput (Gbps, modelled)", "INC latency (ns)",
         "traffic reduction"],
        rows,
    )
    goodput = {name: data["goodput"] for name, data in results.items()}
    # shape of Fig. 13(a): every INC configuration beats the DPDK baseline;
    # in-switch aggregation beats NIC-only filtering; the heterogeneous
    # switch+NIC combination is the best configuration overall
    assert goodput["SmartNIC"] > goodput["DPDK (no INC)"]
    assert goodput["1 switch"] > goodput["SmartNIC"]
    assert goodput["2 switches"] >= goodput["1 switch"] * 0.95
    assert goodput["1 switch + SmartNIC"] >= goodput["1 switch"]
    assert goodput["1 switch + SmartNIC"] >= goodput["SmartNIC"]
    # shape of Fig. 13(b): configurations that involve the smartNIC pay more
    # in-network latency than the pure-switch one
    latency = {name: data["latency_ns"] for name, data in results.items()}
    assert latency["1 switch + SmartNIC"] >= latency["1 switch"]

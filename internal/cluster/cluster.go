// Package cluster models the HPC cluster the paper evaluates on: a set of
// compute nodes (each with ppn cores and a node-local disk) connected by a
// low-latency interconnect to a shared parallel file system (GPFS-like).
//
// Resource modeling choices (all of which the paper's figures depend on):
//
//   - Each rank owns one core, modeled as a processor-sharing resource so a
//     background copier thread genuinely steals CPU from the main thread
//     (Figure 7).
//   - The PFS has a fixed aggregate bandwidth shared by every client plus a
//     per-operation latency; many small checkpoint writes are therefore
//     latency-bound (Figures 4/6) and strong scaling saturates once the
//     aggregate bandwidth is consumed (Figure 5).
//   - Node-local disks have private bandwidth shared only by the node's own
//     ranks; data on them becomes unreachable when the owning process dies,
//     which is why checkpoints must be drained to the PFS by the copier.
package cluster

import (
	"fmt"
	"time"

	"ftmrmpi/internal/introspect"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/storage"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/vtime"
)

// Config describes cluster hardware. The defaults approximate the paper's
// testbed: 256 nodes, 2-way 8-core Xeon (8 ranks/node), QDR InfiniBand,
// local SATA disks, and a shared GPFS installation.
type Config struct {
	Nodes int // number of compute nodes
	PPN   int // processes (ranks) per node

	// Interconnect: per-message latency plus per-link bandwidth. The fat
	// tree is modeled as non-blocking, so only endpoint links matter.
	NICLatency   time.Duration
	NICBandwidth float64 // bytes/sec per link

	// Node-local disk.
	LocalDiskBW    float64 // bytes/sec
	LocalDiskOpLat time.Duration
	LocalDiskIOPS  float64 // small ops/sec per node (page-cache buffered)
	HasLocalDisk   bool

	// Shared parallel file system (aggregate across the whole machine).
	PFSBandwidth float64 // bytes/sec, aggregate
	PFSOpLat     time.Duration
	PFSIOPS      float64 // small ops/sec, aggregate
}

// Default returns a configuration approximating the paper's 256-node
// testbed. Bandwidths are in simulated bytes/sec against the scaled-down
// workloads used by the benchmark harness.
func Default() Config {
	return Config{
		Nodes:          256,
		PPN:            8,
		NICLatency:     5 * time.Microsecond,
		NICBandwidth:   3.2e9, // ~QDR IB effective per-link
		LocalDiskBW:    2e9,   // page-cache-buffered sequential writes
		LocalDiskOpLat: 20 * time.Microsecond,
		LocalDiskIOPS:  400e3, // page-cache-buffered small appends
		HasLocalDisk:   true,
		PFSBandwidth:   12e9, // aggregate GPFS
		PFSOpLat:       600 * time.Microsecond,
		PFSIOPS:        40e3, // aggregate metadata/small-op budget
	}
}

// Node is one compute node.
type Node struct {
	ID    int
	Cores []*vtime.Bandwidth
	Local *storage.Tier
}

// Cluster is the instantiated machine.
type Cluster struct {
	Sim *vtime.Sim
	Cfg Config

	FS    *storage.FS // the global namespace backing every tier
	PFS   *storage.Tier
	Nodes []*Node

	// Trace, when non-nil, receives structured events from every layer
	// running on this cluster (MPI, runner, checkpointing, failure
	// injection). nil disables tracing at the cost of one branch per
	// instrumentation point. Layers reach Trace, Metrics and Introspect
	// through one handle per rank, Recorder.
	Trace *trace.Tracer

	// Metrics, when non-nil, is the live metrics registry every layer binds
	// its instruments to. Like Trace, nil disables all metric collection at
	// the cost of one branch per instrumentation point.
	Metrics *metrics.Registry

	// Introspect, when non-nil, is the live introspection plane: ranks bind
	// annotation probes at spawn time and the plane captures wait-state
	// snapshots at the scheduler's safe points. Like Trace and Metrics, nil
	// disables it at the cost of one branch per instrumentation point, and
	// it must be set before Launch.
	Introspect *introspect.Plane

	// recs memoizes the untraced Recorders handed out while Trace is nil
	// (the tracer memoizes its own).
	recs map[int]*trace.Recorder
}

// Recorder returns rank's observation handle (trace.GlobalRank for the
// world track): one trace.Recorder feeding every attached plane — the trace
// ring, the Metrics registry and the rank's Introspect probe. With Trace set
// it is the tracer's own recorder for the rank; otherwise an untraced one,
// memoized per rank. It is nil only when all three planes are off. Set the
// planes before launch: each rank keeps the handle it was launched with.
func (c *Cluster) Recorder(rank int) *trace.Recorder {
	if c.Trace == nil && c.Metrics == nil && c.Introspect == nil {
		return nil
	}
	r := c.Trace.Rank(rank)
	if r == nil {
		if r = c.recs[rank]; r == nil {
			r = trace.NewRecorder(rank)
			c.recs[rank] = r
		}
	}
	r.Attach(c.Metrics, c.Introspect.RankProbe(rank))
	return r
}

// New builds a cluster on a fresh simulation.
func New(cfg Config) *Cluster {
	sim := vtime.NewSim()
	return NewOn(sim, cfg)
}

// NewOn builds a cluster on an existing simulation.
func NewOn(sim *vtime.Sim, cfg Config) *Cluster {
	if cfg.Nodes <= 0 || cfg.PPN <= 0 {
		panic("cluster: Nodes and PPN must be positive")
	}
	fs := storage.NewFS()
	c := &Cluster{
		Sim:  sim,
		Cfg:  cfg,
		FS:   fs,
		recs: make(map[int]*trace.Recorder),
		PFS:  storage.NewTier("pfs", fs, vtime.NewBandwidth(sim, "pfs-bw", cfg.PFSBandwidth), cfg.PFSOpLat, "pfs:"),
	}
	if cfg.PFSIOPS > 0 {
		c.PFS.IOPS = vtime.NewBandwidth(sim, "pfs-iops", cfg.PFSIOPS)
	}
	// Wire the tiers to the simulator clock so charge-free reads (Peek)
	// observe whole-tier outage windows (storage.Tier.Clock).
	c.PFS.Clock = sim.Now
	for n := 0; n < cfg.Nodes; n++ {
		node := &Node{ID: n}
		for s := 0; s < cfg.PPN; s++ {
			node.Cores = append(node.Cores, vtime.NewBandwidth(sim, fmt.Sprintf("cpu-n%d-c%d", n, s), 1.0))
		}
		if cfg.HasLocalDisk {
			bw := vtime.NewBandwidth(sim, fmt.Sprintf("disk-n%d", n), cfg.LocalDiskBW)
			node.Local = storage.NewTier(fmt.Sprintf("local-n%d", n), fs, bw, cfg.LocalDiskOpLat, fmt.Sprintf("local%d:", n))
			if cfg.LocalDiskIOPS > 0 {
				node.Local.IOPS = vtime.NewBandwidth(sim, fmt.Sprintf("disk-iops-n%d", n), cfg.LocalDiskIOPS)
			}
			node.Local.Clock = sim.Now
		}
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

// Slots returns the total number of rank slots (Nodes × PPN).
func (c *Cluster) Slots() int { return c.Cfg.Nodes * c.Cfg.PPN }

// NodeOf returns the node hosting the given rank under block placement.
func (c *Cluster) NodeOf(rank int) *Node { return c.Nodes[rank/c.Cfg.PPN%len(c.Nodes)] }

// CoreOf returns the CPU resource owned by the given rank.
func (c *Cluster) CoreOf(rank int) *vtime.Bandwidth {
	return c.NodeOf(rank).Cores[rank%c.Cfg.PPN]
}

// LocalOf returns the local-disk tier of the node hosting rank, or nil when
// the cluster has no local disks.
func (c *Cluster) LocalOf(rank int) *storage.Tier { return c.NodeOf(rank).Local }

// TransferCost returns the virtual time to move n bytes point-to-point.
func (c *Cluster) TransferCost(bytes int) time.Duration {
	sec := float64(bytes) / c.Cfg.NICBandwidth
	return c.Cfg.NICLatency + time.Duration(sec*float64(time.Second))
}

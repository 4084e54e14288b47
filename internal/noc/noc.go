// Package noc models the multi-point network that connects the prototype's
// cores to the PSM ([25]: SiFive TileLink): masters (cores) issue
// transactions toward slaves (PSM ports / memory channels) through either
// a shared bus or a crossbar, with per-link bandwidth and arbitration.
//
// The evaluation platforms use the crossbar (Figure 6b connects eight
// cores to the PSM "via a system memory bus"); the package exists to
// quantify that choice: a shared bus serializes the very concurrency the
// open-channel design creates.
package noc

import (
	"fmt"

	"repro/internal/sim"
)

// Topology selects the interconnect organization.
type Topology int

// Topologies.
const (
	// SharedBus grants one master at a time (single arbitration domain).
	SharedBus Topology = iota
	// Crossbar gives every master a private path to each slave; only
	// same-slave transactions contend.
	Crossbar
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case SharedBus:
		return "shared-bus"
	case Crossbar:
		return "crossbar"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// Config parameterizes the network.
type Config struct {
	Topology Topology
	Masters  int
	Slaves   int

	// ArbitrationLatency is the grant decision time per transaction.
	ArbitrationLatency sim.Duration
	// TransferTime is the beat time a 64 B message occupies its link.
	TransferTime sim.Duration
}

// DefaultConfig is the prototype's 8-master crossbar toward the PSM's
// channels at AXI4 beat timing.
func DefaultConfig() Config {
	return Config{
		Topology:           Crossbar,
		Masters:            8,
		Slaves:             6,
		ArbitrationLatency: sim.FromNanoseconds(3),
		TransferTime:       sim.FromNanoseconds(5),
	}
}

// Network is the interconnect state: per-link occupancy.
type Network struct {
	cfg Config
	// busFree is the shared-bus occupancy (SharedBus).
	busFree sim.Time
	// slaveFree is the per-slave link occupancy (Crossbar).
	slaveFree []sim.Time

	transactions uint64
	waitTotal    sim.Duration
}

// New builds a network.
func New(cfg Config) *Network {
	if cfg.Masters <= 0 {
		cfg.Masters = 8
	}
	if cfg.Slaves <= 0 {
		cfg.Slaves = 1
	}
	return &Network{cfg: cfg, slaveFree: make([]sim.Time, cfg.Slaves)}
}

// Config reports the configuration.
func (n *Network) Config() Config { return n.cfg }

// Transfer routes one 64 B transaction from a master to a slave starting
// at now, returning when the message is delivered (the response path is
// symmetric; callers double it or fold it into the endpoint latency).
func (n *Network) Transfer(now sim.Time, master, slave int) sim.Time {
	if slave < 0 || slave >= n.cfg.Slaves {
		panic(fmt.Sprintf("noc: slave %d out of range", slave))
	}
	if master < 0 || master >= n.cfg.Masters {
		panic(fmt.Sprintf("noc: master %d out of range", master))
	}
	n.transactions++
	var start sim.Time
	switch n.cfg.Topology {
	case SharedBus:
		start = sim.Max(now, n.busFree)
		n.busFree = start.Add(n.cfg.TransferTime)
	default:
		start = sim.Max(now, n.slaveFree[slave])
		n.slaveFree[slave] = start.Add(n.cfg.TransferTime)
	}
	n.waitTotal += start.Sub(now)
	return start.Add(n.cfg.ArbitrationLatency + n.cfg.TransferTime)
}

// Stats reports transactions routed and mean arbitration wait.
func (n *Network) Stats() (transactions uint64, meanWait sim.Duration) {
	if n.transactions == 0 {
		return 0, 0
	}
	return n.transactions, n.waitTotal / sim.Duration(n.transactions)
}

// SlaveFor maps a cacheline to its slave port (DIMM interleaving).
func (n *Network) SlaveFor(line uint64) int {
	return int(line % uint64(n.cfg.Slaves))
}

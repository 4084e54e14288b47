// Package lightpc is a full-system simulation of LightPC — "LightPC:
// Hardware and Software Co-Design for Energy-Efficient Full System
// Persistence" (Lee, Kwon, Park, Jung; ISCA 2022) — reimplemented as a Go
// library.
//
// The package exposes the three platforms of the paper's evaluation:
//
//   - LegacyPC: a conventional DRAM-working-memory system (volatile);
//   - LightPCB: OC-PMEM as working memory with a conventional controller
//     (read-after-writes block — the paper's baseline);
//   - LightPCFull: OC-PMEM with the full persistent support module —
//     per-device row buffers, early-return writes, XCC read
//     reconstruction, Start-Gap wear leveling.
//
// A Platform bundles the memory subsystem, an 8-core CPU model, a mini-OS
// (PecOS), and the Stop-and-Go mechanism. Typical use:
//
//	p := lightpc.New(lightpc.DefaultConfig(lightpc.LightPCFull))
//	res := p.Run(mustSpec("Redis"))            // execute a Table II workload
//	stop := p.PowerFail(0)                     // power event -> SnG Stop
//	rep, err := p.Recover(0)                   // power back -> SnG Go
//
// Everything underneath lives in internal/ packages: device timing models
// (pram, dram, nvdimm, pmemdimm), the PSM, caches and CPU, the kernel and
// sng, the PMDK-like software stack, the baseline persistence mechanisms,
// and one experiment harness per figure/table of the paper.
package lightpc

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/energy"
	"repro/internal/kernel"
	"repro/internal/memctrl"
	"repro/internal/power"
	"repro/internal/psm"
	"repro/internal/sim"
	"repro/internal/sng"
	"repro/internal/workload"
)

// Kind selects the platform configuration of Section VI.
type Kind int

// Platform kinds.
const (
	// LegacyPC keeps all processes and data in DRAM (Linux default).
	LegacyPC Kind = iota
	// LightPCB places everything on OC-PMEM but handles read-after-writes
	// like a conventional memory controller.
	LightPCB
	// LightPCFull adds early-return writes and XCC data reconstruction.
	LightPCFull
)

// String names the platform as in the paper.
func (k Kind) String() string {
	switch k {
	case LegacyPC:
		return "LegacyPC"
	case LightPCB:
		return "LightPC-B"
	case LightPCFull:
		return "LightPC"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config assembles a platform.
type Config struct {
	Kind Kind

	CPU    cpu.Config
	PSM    psm.Config    // used by the OC-PMEM kinds
	DRAM   dram.Config   // used by LegacyPC
	DRAMs  int           // DRAM DIMM count (LegacyPC)
	CtrlNs float64       // DRAM controller latency (ns)
	Kernel kernel.Config // the mini-OS SnG operates on
	Power  power.Params

	// SampleOps is how many memory references each workload run samples
	// (results scale linearly; larger = smoother, slower).
	SampleOps uint64
	Seed      uint64

	// Energy attaches per-device joule meters (internal/energy) to the
	// whole stack. Off by default: disabled meters are nil and cost the
	// hot paths nothing, and every existing output stays byte-identical.
	Energy bool
}

// DefaultConfig mirrors Table I for the given kind.
func DefaultConfig(kind Kind) Config {
	cfg := Config{
		Kind:      kind,
		CPU:       cpu.DefaultConfig(),
		DRAM:      dram.DefaultConfig(),
		DRAMs:     6,
		CtrlNs:    8,
		Kernel:    kernel.DefaultConfig(),
		Power:     power.Default(),
		SampleOps: 200_000,
		Seed:      1,
	}
	switch kind {
	case LightPCFull:
		cfg.PSM = psm.DefaultConfig()
	case LightPCB:
		cfg.PSM = psm.BaselineConfig()
	case LegacyPC:
		cfg.Kernel.PersistentProcs = false
	}
	return cfg
}

// Platform is one assembled system.
type Platform struct {
	cfg Config

	backend cache.Backend
	psm     *psm.PSM
	data    *psm.DataStore
	dramC   *memctrl.DRAMController

	kern *kernel.Kernel
	sng  *sng.SnG

	energy *energy.Set     // nil unless cfg.Energy
	coreM  []*energy.Meter // per-core meters (subset of energy)
}

// New builds the platform.
func New(cfg Config) *Platform {
	p := &Platform{cfg: cfg}
	switch cfg.Kind {
	case LegacyPC:
		p.dramC = memctrl.NewDRAMController(cfg.DRAMs, cfg.DRAM,
			sim.FromNanoseconds(cfg.CtrlNs))
		p.backend = p.dramC
	case LightPCB, LightPCFull:
		pc := cfg.PSM
		pc.Seed = cfg.Seed
		p.psm = psm.New(pc)
		p.backend = &memctrl.PSMBackend{PSM: p.psm}
	default:
		panic(fmt.Sprintf("lightpc: unknown kind %v", cfg.Kind))
	}
	p.bindMeters()
	kc := cfg.Kernel
	kc.Seed = cfg.Seed
	p.kern = kernel.New(kc)
	p.sng = sng.New(p.kern)
	p.sng.P = p.psm // nil for LegacyPC
	p.sng.Energy = p.energy
	p.sng.CoreEnergy = p.coreM
	return p
}

// bindMeters builds the platform's meter set when Config.Energy is on:
// one meter per device complex, reading its op counts from the counters
// those devices keep, then one per core. New and Fork both call it, so a
// fork's meters read the fork's devices.
func (p *Platform) bindMeters() {
	if !p.cfg.Energy {
		return
	}
	pw := p.cfg.Power
	p.energy = energy.NewSet()
	if c := p.dramC; c != nil {
		p.energy.Add(energy.NewMeter("memctrl", energy.DRAMCtrlSpec(pw), func(n []uint64) {
			r, w, _, _ := c.Stats()
			n[energy.CtrlRequest] = r + w
		}))
		p.energy.Add(energy.NewMeter("dram", energy.DRAMArraySpec(pw, p.cfg.DRAMs), func(n []uint64) {
			r, w, rowHits, refreshes := c.Stats()
			// Every row miss precharges the open page and activates the new one.
			n[energy.DRAMActivate] = r + w - rowHits
			n[energy.DRAMPrecharge] = r + w - rowHits
			n[energy.DRAMCASRead] = r
			n[energy.DRAMCASWrite] = w
			n[energy.DRAMRefresh] = refreshes
		}))
	} else {
		ps := p.psm
		p.energy.Add(energy.NewMeter("psm", energy.PSMSpec(pw), func(n []uint64) {
			s := ps.Stats()
			n[energy.PSMPortRead] = s.Reads
			n[energy.PSMPortWrite] = s.Writes
			n[energy.PSMReconstruct] = s.Reconstructs + s.ContainedErrors
			n[energy.PSMMediaWrite] = s.MediaWrites
			n[energy.PSMWearMove] = s.WearLevelMoves
			n[energy.PSMScrubLine] = ps.ScrubLines()
		}))
		p.energy.Add(energy.NewMeter("pram", energy.PRAMArraySpec(pw, p.cfg.PSM.DIMMs), func(n []uint64) {
			for _, d := range ps.DIMMs() {
				for _, dev := range d.Devices() {
					r, w, _, _ := dev.Stats()
					n[energy.PRAMRead] += r
					n[energy.PRAMWrite] += w
				}
			}
			// Every program is followed by its cooling window.
			n[energy.PRAMCooling] = n[energy.PRAMWrite]
		}))
	}
	for i := 0; i < p.cfg.CPU.Cores; i++ {
		p.coreM = append(p.coreM, p.energy.Add(energy.NewMeter(fmt.Sprintf("core%d", i), energy.CPUCoreSpec(pw), nil)))
	}
	p.cfg.CPU.Energy = p.coreM
}

// Config reports the platform configuration.
func (p *Platform) Config() Config { return p.cfg }

// Kind reports the platform kind.
func (p *Platform) Kind() Kind { return p.cfg.Kind }

// Backend exposes the memory backend (for layering, e.g. PMDK modes).
func (p *Platform) Backend() cache.Backend { return p.backend }

// PSM exposes the persistent support module (nil on LegacyPC).
func (p *Platform) PSM() *psm.PSM { return p.psm }

// DataStore returns the content-carrying view of OC-PMEM — real bytes,
// XCC parity, device-failure injection (nil on LegacyPC). Created lazily;
// repeated calls return the same store.
func (p *Platform) DataStore() *psm.DataStore {
	if p.psm == nil {
		return nil
	}
	if p.data == nil {
		p.data = psm.NewDataStore(p.psm)
	}
	return p.data
}

// DRAM exposes the DRAM controller (nil on OC-PMEM kinds).
func (p *Platform) DRAM() *memctrl.DRAMController { return p.dramC }

// Kernel exposes the mini-OS.
func (p *Platform) Kernel() *kernel.Kernel { return p.kern }

// SnG exposes the Stop-and-Go mechanism.
func (p *Platform) SnG() *sng.SnG { return p.sng }

// Energy exposes the per-device meter set (nil unless Config.Energy).
func (p *Platform) Energy() *energy.Set { return p.energy }

// RunResult is one workload execution plus its power/energy accounting.
type RunResult struct {
	cpu.Result
	Workload string
	// AvgPowerW is the platform draw during the run.
	AvgPowerW float64
	// EnergyJ integrates power over the elapsed time.
	EnergyJ float64
}

// busyState describes the platform's components under load.
func (p *Platform) busyState(activeCores int) power.State {
	idle := p.cfg.CPU.Cores - activeCores
	if idle < 0 {
		idle = 0
	}
	s := power.State{ActiveCores: activeCores, IdleCores: idle}
	if p.cfg.Kind == LegacyPC {
		s.DRAMDIMMs = p.cfg.DRAMs
		s.DRAMCtrl = true
	} else {
		s.PRAMDIMMs = p.cfg.PSM.DIMMs
		s.PSM = true
	}
	return s
}

// Run executes one Table II workload on the platform and returns timing and
// energy. Multithreaded specs fan out across all cores.
func (p *Platform) Run(spec workload.Spec) RunResult {
	gens := cpu.Fanout(spec, p.cfg.CPU.Cores, p.cfg.SampleOps, p.cfg.Seed)
	return p.RunGenerators(spec.Name, gens, spec.MultiThread)
}

// RunGenerators executes arbitrary generators (one per core).
func (p *Platform) RunGenerators(name string, gens []workload.Generator, multi bool) RunResult {
	// Each run is its own timeline starting at 0: rebase the device meters
	// so an earlier Stop/Go epoch cannot leak into this run's window, then
	// integrate them over the elapsed wall-clock (cpu.Run syncs the core
	// meters itself).
	p.energy.Rebase(0)
	res := cpu.Run(p.cfg.CPU, 0, gens, p.backend)
	p.energy.Sync(sim.Time(0).Add(res.Elapsed))
	active := len(gens)
	if active > p.cfg.CPU.Cores {
		active = p.cfg.CPU.Cores
	}
	watts := p.cfg.Power.Watts(p.busyState(active))
	return RunResult{
		Result:    res,
		Workload:  name,
		AvgPowerW: watts,
		EnergyJ:   power.EnergyJ(watts, res.Elapsed),
	}
}

// PowerFail triggers SnG's Stop at now against the given PSU's spec
// hold-up window and then drops power. It returns the Stop report; if the
// report is incomplete the EP-cut was not drawn and recovery will cold
// boot.
func (p *Platform) PowerFail(now sim.Time, psu power.PSU) sng.StopReport {
	deadline := now.Add(sim.Duration(psu.SpecHoldUp))
	rep := p.sng.Stop(now, deadline)
	p.kern.PowerLoss()
	return rep
}

// Recover runs SnG's Go at now. ErrNoCommit means a cold boot is needed
// (use ColdBoot).
func (p *Platform) Recover(now sim.Time) (sng.GoReport, error) {
	return p.sng.Go(now)
}

// ColdBoot rebuilds the kernel from scratch (the path taken when no EP-cut
// commit exists). All previous execution state is lost — but OC-PMEM is
// not: persistent memory survives the outage even without a commit, so
// application-level recovery (journal replay, pool rollback, checkpoint
// restore) still finds its data.
func (p *Platform) ColdBoot() {
	kc := p.cfg.Kernel
	kc.Seed = p.cfg.Seed + 1
	p.kern = kernel.NewWithBank(kc, p.kern.OCPMEM)
	p.sng = sng.New(p.kern)
	p.sng.P = p.psm
	p.sng.Energy = p.energy
	p.sng.CoreEnergy = p.coreM
}

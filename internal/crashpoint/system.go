package crashpoint

import (
	"fmt"

	lightpc "repro"
	"repro/internal/checkpoint"
	"repro/internal/journal"
	"repro/internal/kernel"
	"repro/internal/pmdk"
	"repro/internal/pmemdimm"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Scenario parameterizes one cut exploration: which platform to build, how
// to age it, and how much application persistence traffic to stage on top
// before the rails drop.
type Scenario struct {
	// Kind selects the platform; the zero value maps to LightPCFull (the
	// cut invariants assume persistent PCBs, which LegacyPC does not have —
	// its hibernation path is covered by CheckHibernate instead).
	Kind lightpc.Kind

	Seed        uint64
	Cores       int
	UserProcs   int
	KernelProcs int
	Devices     int

	// Ticks pre-ages the kernel scheduler before the power event.
	Ticks int

	// Workload names the Table II spec whose reference stream drives the
	// application phase (and, with SampleOps > 0, a timed platform run).
	Workload string

	// SampleOps sizes an optional timed workload run before the cut
	// (0 skips it; the functional crash checks do not need it).
	SampleOps uint64

	// AppOps is how many application persistence operations are staged:
	// journal puts/commits, pool transactions, checkpoint commits,
	// datastore line writes, partial checkpoint migrations.
	AppOps int

	// OpsPerCommit is the journal's transaction size.
	OpsPerCommit int

	// Holdup overrides the hold-up window (0 = the ATX spec's 16 ms).
	Holdup sim.Duration
}

// withDefaults fills zero values with a modest busy system (smaller than
// the paper's 8/72/48/250 default so cut searches rebuild quickly).
func (sc Scenario) withDefaults() Scenario {
	if sc.Kind == lightpc.LegacyPC {
		sc.Kind = lightpc.LightPCFull
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Cores <= 0 {
		sc.Cores = 4
	}
	if sc.UserProcs <= 0 {
		sc.UserProcs = 24
	}
	if sc.KernelProcs <= 0 {
		sc.KernelProcs = 16
	}
	if sc.Devices <= 0 {
		sc.Devices = 64
	}
	if sc.Ticks <= 0 {
		sc.Ticks = 6
	}
	if sc.Workload == "" {
		sc.Workload = "Redis"
	}
	if sc.AppOps <= 0 {
		sc.AppOps = 96
	}
	if sc.OpsPerCommit <= 0 {
		sc.OpsPerCommit = 5
	}
	if sc.Holdup <= 0 {
		sc.Holdup = sim.Duration(power.ATX().SpecHoldUp)
	}
	return sc
}

// regionShadow is one checkpoint region's shadow: the application's live
// variables (the region handle Build drives points into live) and the
// snapshot its last commit took.
type regionShadow struct {
	name      string
	live      []uint64
	committed []uint64
}

// sysShadow is the reference model of everything the cut may and may not
// surface: committed state must survive, staged state must not. Build
// fills it and then freezes it; from then on it is read-only, and every
// fork of the system shares it.
type sysShadow struct {
	jCommitted map[uint64]uint64
	jStaged    map[uint64]uint64

	pool       []uint64
	poolStaged []uint64
	poolOpen   bool

	regions []regionShadow

	lines map[uint64][]byte

	// The ascending orders CutAt walks, computed once by freeze: the
	// committed journal keys with their values, the staged journal keys no
	// commit covers, and the written datastore lines.
	committedKeys []uint64
	committedVals []uint64
	stagedKeys    []uint64
	lineKeys      []uint64
}

// freeze computes the shadow's key orders. Build calls it last; nothing
// writes the shadow afterwards.
func (sh *sysShadow) freeze() {
	sh.committedKeys = sortedKeys(sh.jCommitted)
	sh.committedVals = make([]uint64, len(sh.committedKeys))
	for i, k := range sh.committedKeys {
		sh.committedVals[i] = sh.jCommitted[k]
	}
	for _, k := range sortedKeys(sh.jStaged) {
		if _, committed := sh.jCommitted[k]; !committed {
			sh.stagedKeys = append(sh.stagedKeys, k)
		}
	}
	sh.lineKeys = sortedKeys(sh.lines)
}

// preState captures the kernel image before Stop begins, for the
// restored-exactly (I1) and untouched-regions (I2) comparisons. Like the
// shadow it is read-only once Build returns and shared by every fork.
type preState struct {
	appChecksum uint64
	coreMRegs   [][4]uint64
	devContext  []uint64
	devMMIO     []uint64
	aliveCount  int
}

// System is one built platform plus its staged application state, ready
// for exactly one CutAt.
type System struct {
	Scenario Scenario
	Platform *lightpc.Platform
	Window   sim.Duration

	journal *journal.Store
	pool    *pmdk.Pool
	poolObj pmdk.OID

	// ckpt are the checkpoint region handles the application phase
	// commits through, one per shadow.regions entry (nil on forks).
	ckpt []*checkpoint.Region

	shadow *sysShadow
	pre    *preState
}

// Build assembles the system: platform, application persistence stacks
// (WAL store, pmdk pool, checkpoint regions, PSM datastore), a seeded
// application phase that leaves both committed state and adversarial
// residue (staged puts, an open transaction, dirty checkpoint variables, a
// half-migrated checkpoint), then scheduler aging and the pre-cut capture.
func Build(sc Scenario) (*System, error) {
	sc = sc.withDefaults()
	spec, ok := workload.ByName(sc.Workload)
	if !ok {
		return nil, fmt.Errorf("crashpoint: unknown workload %q", sc.Workload)
	}

	cfg := lightpc.DefaultConfig(sc.Kind)
	cfg.Seed = sc.Seed
	cfg.CPU.Cores = sc.Cores
	cfg.Kernel.Cores = sc.Cores
	cfg.Kernel.UserProcs = sc.UserProcs
	cfg.Kernel.KernelProcs = sc.KernelProcs
	cfg.Kernel.Devices = sc.Devices
	if sc.SampleOps > 0 {
		cfg.SampleOps = sc.SampleOps
	}
	p := lightpc.New(cfg)
	if sc.SampleOps > 0 {
		p.Run(spec)
	}

	s := &System{
		Scenario: sc,
		Platform: p,
		Window:   sc.Holdup,
		journal:  journal.Open(pmemdimm.NewSectorDevice(pmemdimm.New(pmemdimm.DefaultConfig()))),
		shadow: &sysShadow{
			jCommitted: map[uint64]uint64{},
			jStaged:    map[uint64]uint64{},
			pool:       make([]uint64, poolObjWords),
			lines:      map[uint64][]byte{},
		},
	}
	bank := p.Kernel().OCPMEM
	s.pool = pmdk.Open(bank)
	s.poolObj = s.pool.Alloc(poolObjWords)
	s.pool.SetRoot(s.poolObj)
	m := checkpoint.NewManager(bank)
	for _, sh := range ckptShapes {
		r := regionShadow{name: sh.name, live: make([]uint64, sh.vars)}
		ptrs := make([]*uint64, sh.vars)
		for j := range ptrs {
			ptrs[j] = &r.live[j]
		}
		s.ckpt = append(s.ckpt, m.Register(sh.name, ptrs...))
		s.shadow.regions = append(s.shadow.regions, r)
	}

	if err := s.runApp(spec); err != nil {
		return nil, err
	}
	p.Kernel().Tick(sc.Ticks)
	s.shadow.freeze()
	s.pre = capturePre(p.Kernel())
	return s, nil
}

// lineContent derives a deterministic 64 B line payload.
func lineContent(line, val uint64) []byte {
	out := make([]byte, 64)
	for i := range out {
		out[i] = byte(val>>(8*(uint(i)%8)) ^ line ^ uint64(i)*131)
	}
	return out
}

// runApp drives the application phase from the workload's reference
// stream, tracking every commit boundary in the shadow.
func (s *System) runApp(spec workload.Spec) error {
	sc := s.Scenario
	gen := workload.NewSynthetic(spec, uint64(sc.AppOps), sim.SubSeed(sc.Seed, "crashpoint/app"))
	rng := sim.NewRNG(sim.SubSeed(sc.Seed, "crashpoint/val"))
	ds := s.Platform.DataStore() // nil on LegacyPC

	// Baseline pool transaction: committed values to fall back to.
	if err := s.pool.TxBegin(); err != nil {
		return err
	}
	for i := range s.shadow.pool {
		s.shadow.pool[i] = rng.Uint64()
		s.pool.Set(s.poolObj, i, s.shadow.pool[i])
	}
	if err := s.pool.TxCommit(); err != nil {
		return err
	}
	for i, reg := range s.ckpt {
		r := &s.shadow.regions[i]
		for j := range r.live {
			r.live[j] = rng.Uint64()
		}
		reg.Commit()
		r.committed = append([]uint64(nil), r.live...)
	}

	now := sim.Time(0)
	sincePut := 0
	i := 0
	for {
		ref, ok := gen.Next()
		if !ok {
			break
		}
		key := ref.Access.Addr % 509
		val := rng.Uint64() | 1

		now = s.journal.Put(now, key, val)
		s.shadow.jStaged[key] = val
		sincePut++
		if sincePut >= sc.OpsPerCommit {
			now = s.journal.Commit(now)
			for k, v := range s.shadow.jStaged {
				s.shadow.jCommitted[k] = v
			}
			s.shadow.jStaged = map[uint64]uint64{}
			sincePut = 0
		}

		switch {
		case i%7 == 3:
			if !s.shadow.poolOpen {
				if err := s.pool.TxBegin(); err != nil {
					return err
				}
				s.shadow.poolStaged = append([]uint64(nil), s.shadow.pool...)
				s.shadow.poolOpen = true
			}
			idx := rng.Intn(poolObjWords)
			s.pool.Set(s.poolObj, idx, val)
			s.shadow.poolStaged[idx] = val
			if rng.Bool(0.4) {
				if err := s.pool.TxCommit(); err != nil {
					return err
				}
				s.shadow.pool = append([]uint64(nil), s.shadow.poolStaged...)
				s.shadow.poolOpen = false
			}
		case i%5 == 1:
			ri := rng.Intn(len(s.ckpt))
			r := &s.shadow.regions[ri]
			r.live[rng.Intn(len(r.live))] = val
			if rng.Bool(0.35) {
				s.ckpt[ri].Commit()
				r.committed = append([]uint64(nil), r.live...)
			}
		case i%6 == 2 && ds != nil:
			line := key % 4096
			content := lineContent(line, val)
			now = ds.WriteData(now, line, content)
			s.shadow.lines[line] = content
		case i%11 == 10:
			now, _ = s.journal.CheckpointStep(now, 2)
		}
		i++
	}

	// Adversarial residue: staged puts with no commit...
	for j := uint64(0); j < 3; j++ {
		key := 600 + j
		val := rng.Uint64() | 1
		now = s.journal.Put(now, key, val)
		s.shadow.jStaged[key] = val
	}
	// ...an open transaction with staged writes...
	if !s.shadow.poolOpen {
		if err := s.pool.TxBegin(); err != nil {
			return err
		}
		s.shadow.poolStaged = append([]uint64(nil), s.shadow.pool...)
		s.shadow.poolOpen = true
	}
	idx := rng.Intn(poolObjWords)
	s.pool.Set(s.poolObj, idx, rng.Uint64()|1)
	s.shadow.poolStaged[idx] = 0 // value irrelevant; openness is what matters
	// ...a dirty checkpoint variable, and a half-migrated checkpoint.
	s.shadow.regions[0].live[0] = rng.Uint64() | 1
	_, _ = s.journal.CheckpointStep(now, 1)
	return nil
}

// appRegionsChecksum digests the persistent regions only a commit may
// publish into: the pmdk pool, the checkpoint pool, and the hibernation
// area. The BCB and DCB regions are excluded — a legitimate Stop writes
// those even when it fails to commit.
func appRegionsChecksum(b *kernel.Bank) uint64 {
	h := b.ChecksumRange(kernel.RegionPool, kernel.RegionBCB)
	h = h*1099511628211 ^ b.ChecksumRange(kernel.RegionCkpt, kernel.RegionDCB)
	h = h*1099511628211 ^ b.ChecksumRange(kernel.RegionHib, ^uint64(0))
	return h
}

// capturePre snapshots the kernel image Stop must preserve or restore.
func capturePre(k *kernel.Kernel) *preState {
	pre := &preState{
		appChecksum: appRegionsChecksum(k.OCPMEM),
		aliveCount:  len(k.Alive()),
	}
	for _, c := range k.Cores {
		pre.coreMRegs = append(pre.coreMRegs, c.MRegs)
	}
	for _, d := range k.Devices {
		pre.devContext = append(pre.devContext, d.Context)
		pre.devMMIO = append(pre.devMMIO, d.MMIO)
	}
	return pre
}

package pmdk

import (
	"testing"
	"testing/quick"

	"repro/internal/kernel"
	"repro/internal/memctrl"
	"repro/internal/pmemdimm"
	"repro/internal/sim"
)

func pmemBackend() (*memctrl.PMEMBackend, *pmemdimm.DIMM) {
	d := pmemdimm.New(pmemdimm.DefaultConfig())
	return &memctrl.PMEMBackend{DIMM: d, DAXLatency: sim.FromNanoseconds(2)}, d
}

func TestObjectBackendSlowerThanApp(t *testing.T) {
	app, _ := pmemBackend()
	obj := DefaultObjectBackend(func() *memctrl.PMEMBackend { b, _ := pmemBackend(); return b }())
	var appT, objT sim.Duration
	nowA, nowO := sim.Time(0), sim.Time(0)
	for i := uint64(0); i < 500; i++ {
		addr := i * 64 % 4096
		a := app.Read(nowA, addr)
		appT += a.Sub(nowA)
		nowA = a
		o := obj.Read(nowO, addr)
		objT += o.Sub(nowO)
		nowO = o
	}
	if objT <= appT {
		t.Fatalf("object mode (%v) not slower than app mode (%v)", objT, appT)
	}
}

func TestObjectBackendHeaderTraffic(t *testing.T) {
	inner, d := pmemBackend()
	obj := DefaultObjectBackend(inner)
	now := sim.Time(0)
	for i := uint64(0); i < 16; i++ {
		now = obj.Write(now, i*64)
	}
	// HeaderEvery=4 over 16 stores -> 4 metadata writes + 16 data writes.
	if got := d.Stats().Writes; got != 20 {
		t.Fatalf("DIMM writes = %d, want 20", got)
	}
}

func TestTxBackendCommitsPerOp(t *testing.T) {
	// trans-mode makes every operation durable (OpsPerTx = 1) and each
	// pmem_persist walks at least the object's VA range.
	inner, d := pmemBackend()
	tx := DefaultTxBackend(inner, d)
	now := sim.Time(0)
	for i := uint64(0); i < 24; i++ {
		now = tx.Write(now, i*64)
	}
	commits, logWrites, flushes := tx.Stats()
	if commits != 24 {
		t.Fatalf("commits = %d, want 24 (per-op durability)", commits)
	}
	if logWrites != 24 {
		t.Fatalf("logWrites = %d", logWrites)
	}
	if flushes < 24*uint64(tx.RangeLines) {
		t.Fatalf("flushes = %d, want ≥ %d (VA-range walk)", flushes, 24*tx.RangeLines)
	}
}

func TestTxBackendBatchedCommits(t *testing.T) {
	inner, d := pmemBackend()
	tx := DefaultTxBackend(inner, d)
	tx.OpsPerTx = 8
	now := sim.Time(0)
	for i := uint64(0); i < 24; i++ {
		now = tx.Write(now, i*64)
	}
	commits, _, _ := tx.Stats()
	if commits != 3 {
		t.Fatalf("commits = %d, want 3 (24 ops / 8)", commits)
	}
}

func TestTxBackendSlowestMode(t *testing.T) {
	// Figure 4's ordering: trans-mode ≫ object-mode > app-mode.
	run := func(mk func() interface {
		Read(sim.Time, uint64) sim.Time
		Write(sim.Time, uint64) sim.Time
	}) sim.Duration {
		b := mk()
		now := sim.Time(0)
		for i := uint64(0); i < 400; i++ {
			if i%4 == 0 {
				now = b.Write(now, i*64%8192)
			} else {
				now = b.Read(now, i*64%8192)
			}
		}
		return now.Sub(0)
	}
	appT := run(func() interface {
		Read(sim.Time, uint64) sim.Time
		Write(sim.Time, uint64) sim.Time
	} {
		b, _ := pmemBackend()
		return b
	})
	objT := run(func() interface {
		Read(sim.Time, uint64) sim.Time
		Write(sim.Time, uint64) sim.Time
	} {
		b, _ := pmemBackend()
		return DefaultObjectBackend(b)
	})
	txT := run(func() interface {
		Read(sim.Time, uint64) sim.Time
		Write(sim.Time, uint64) sim.Time
	} {
		b, d := pmemBackend()
		return DefaultTxBackend(b, d)
	})
	if !(txT > objT && objT > appT) {
		t.Fatalf("mode ordering broken: app=%v obj=%v tx=%v", appT, objT, txT)
	}
}

func persistentPool() (*Pool, *kernel.Bank) {
	bank := kernel.NewBank("ocpmem", true)
	return Open(bank), bank
}

func TestPoolAllocSetGet(t *testing.T) {
	p, _ := persistentPool()
	o := p.Alloc(4)
	if o == NilOID {
		t.Fatal("nil OID from Alloc")
	}
	if p.Size(o) != 4 {
		t.Fatalf("Size = %d", p.Size(o))
	}
	p.Set(o, 0, 11)
	p.Set(o, 3, 44)
	if p.Get(o, 0) != 11 || p.Get(o, 3) != 44 {
		t.Fatal("Set/Get broken")
	}
}

func TestPoolDistinctObjects(t *testing.T) {
	p, _ := persistentPool()
	a := p.Alloc(2)
	b := p.Alloc(2)
	p.Set(a, 0, 1)
	p.Set(b, 0, 2)
	if p.Get(a, 0) != 1 || p.Get(b, 0) != 2 {
		t.Fatal("objects overlap")
	}
}

func TestPoolBoundsChecked(t *testing.T) {
	p, _ := persistentPool()
	o := p.Alloc(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Set(o, 2, 9)
}

func TestPoolRootPersistsAcrossReopen(t *testing.T) {
	p, bank := persistentPool()
	o := p.Alloc(1)
	p.Set(o, 0, 99)
	p.SetRoot(o)
	bank.PowerLoss() // persistent: no-op
	p2 := Open(bank)
	if p2.Root() != o || p2.Get(p2.Root(), 0) != 99 {
		t.Fatal("root object lost across reopen")
	}
}

func TestPoolVolatileBankLosesAll(t *testing.T) {
	bank := kernel.NewBank("dram", false)
	p := Open(bank)
	o := p.Alloc(1)
	p.Set(o, 0, 7)
	p.SetRoot(o)
	bank.PowerLoss()
	p2 := Open(bank)
	if p2.Root() != NilOID {
		t.Fatal("volatile pool survived power loss")
	}
}

func TestTxCommitKeepsChanges(t *testing.T) {
	p, _ := persistentPool()
	o := p.Alloc(1)
	p.Set(o, 0, 1)
	if err := p.TxBegin(); err != nil {
		t.Fatal(err)
	}
	if !p.InTx() {
		t.Fatal("InTx false")
	}
	p.Set(o, 0, 2)
	if err := p.TxCommit(); err != nil {
		t.Fatal(err)
	}
	if p.Get(o, 0) != 2 {
		t.Fatal("committed change lost")
	}
}

// A transaction cut short by a crash is aborted: reopening the bank rolls
// it back through the undo log.
func TestTxAbortRollsBack(t *testing.T) {
	p, bank := persistentPool()
	o := p.Alloc(2)
	p.Set(o, 0, 1)
	p.Set(o, 1, 10)
	p.TxBegin()
	p.Set(o, 0, 2)
	p.Set(o, 1, 20)
	p.Set(o, 0, 3) // double-write: undo must restore the ORIGINAL value
	p = Open(bank) // crash mid-transaction
	if p.Get(o, 0) != 1 || p.Get(o, 1) != 10 {
		t.Fatalf("recovery left %d/%d, want 1/10", p.Get(o, 0), p.Get(o, 1))
	}
}

func TestTxCrashRecovery(t *testing.T) {
	p, bank := persistentPool()
	o := p.Alloc(1)
	p.Set(o, 0, 5)
	p.SetRoot(o)
	p.TxBegin()
	p.Set(o, 0, 6)
	// Crash: no commit. Reopen rolls the interrupted tx back.
	p2 := Open(bank)
	if p2.Get(p2.Root(), 0) != 5 {
		t.Fatalf("interrupted tx not rolled back: %d", p2.Get(p2.Root(), 0))
	}
	if p2.InTx() {
		t.Fatal("tx still active after recovery")
	}
}

func TestTxErrors(t *testing.T) {
	p, _ := persistentPool()
	if err := p.TxCommit(); err != ErrNoTx {
		t.Fatalf("commit without tx: %v", err)
	}
	p.TxBegin()
	if err := p.TxBegin(); err != ErrTxActive {
		t.Fatalf("nested begin: %v", err)
	}
}

func TestPoolAllocZeroPanics(t *testing.T) {
	p, _ := persistentPool()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Alloc(0)
}

// Property: for any interleaving of committed and crashed transactions, a
// reopened pool reflects exactly the committed prefix.
func TestTxAtomicityProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		bank := kernel.NewBank("ocpmem", true)
		p := Open(bank)
		o := p.Alloc(1)
		p.SetRoot(o)
		p.Set(o, 0, 0)
		committed := uint64(0)
		for _, op := range ops {
			p.TxBegin()
			p.Set(o, 0, uint64(op))
			if op%2 == 0 {
				p.TxCommit()
				committed = uint64(op)
			} else {
				// Crash mid-tx: reopen recovers.
				p = Open(bank)
			}
			if p.Get(o, 0) != committed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

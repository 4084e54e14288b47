package crashpoint

import (
	"testing"

	"repro/internal/kernel"
)

// TestRecordedResumeRewindsToPreResumeImage records OC-PMEM across a SysPC
// resume. Resume moves the DRAM image out of the hibernation area —
// RestoreFrom deletes every staged word — and consumes the magic word, so
// the recorder must see each of those mutations: rewinding all of them has
// to rebuild the pre-resume image exactly, and replaying none of them the
// post-resume one.
func TestRecordedResumeRewindsToPreResumeImage(t *testing.T) {
	cfg := kernel.DefaultConfig()
	cfg.Seed = 3
	cfg.PersistentProcs = false
	cfg.Cores = 2
	cfg.UserProcs = 6
	cfg.KernelProcs = 4
	cfg.Devices = 8
	k := kernel.New(cfg)
	k.Tick(10)
	k.Hibernate()
	k.PowerLoss()
	pre, preLen := k.OCPMEM.Checksum(), k.OCPMEM.Len()

	rec := Record(k.OCPMEM)
	if !k.ResumeFromHibernate() {
		t.Fatal("resume refused a complete image")
	}
	rec.Stop()
	if k.OCPMEM.Len() >= preLen {
		t.Fatalf("resume left %d of %d words: the staged image was not removed", k.OCPMEM.Len(), preLen)
	}

	if got := rec.BankAt(0); got.Len() != preLen || got.Checksum() != pre {
		t.Fatalf("BankAt(0) holds %d words (checksum %#x); the pre-resume image held %d (%#x)",
			got.Len(), got.Checksum(), preLen, pre)
	}
	if got := rec.BankAt(rec.Writes()); got.Checksum() != k.OCPMEM.Checksum() {
		t.Fatal("BankAt(Writes()) differs from the post-resume image")
	}
}

package experiments

import (
	lightpc "repro"
	"repro/internal/report"
	"repro/internal/workload"
)

// TableIResult captures the platform configuration (Table I).
type TableIResult struct {
	Cores         int
	FPGAHz        float64
	ASICHz        float64
	CacheBytes    int
	NVDIMMs       int
	ReadRatio     float64 // PRAM read latency vs DRAM
	WriteRatio    float64 // PRAM write latency vs DRAM
	CapacityRatio float64
}

// TableI reports the prototype configuration.
func TableI() (TableIResult, *report.Table) {
	cfg := lightpc.DefaultConfig(lightpc.LightPCFull)
	dev := cfg.PSM.NVDIMM.Device
	res := TableIResult{
		Cores:         cfg.CPU.Cores,
		FPGAHz:        fpgaHz,
		ASICHz:        asicHz,
		CacheBytes:    16 << 10,
		NVDIMMs:       cfg.PSM.DIMMs,
		ReadRatio:     1.1,
		WriteRatio:    float64(dev.WriteLatency) / float64(dev.ReadLatency) / 1.1 * 1.1,
		CapacityRatio: 2,
	}
	t := report.New("Table I: configurations",
		"item", "value")
	t.Add("CPU", "8 RV64 cores, 7-stage O3")
	t.Add("Freq (FPGA)", "0.4 GHz")
	t.Add("Freq (ASIC)", "1.6 GHz")
	t.Add("I$/D$", "16KB")
	t.Add("#Bare-NVDIMM", "6")
	t.Add("PRAM capacity vs DRAM", "2x")
	t.Add("PRAM read latency vs DRAM", "1.1x")
	t.Add("PRAM write latency vs read", report.X(res.WriteRatio))
	return res, t
}

// TableII renders the benchmark characterization: the Table II spec of
// every workload, which the generators are parameterized by. It runs
// nothing; workload.TestSyntheticMatchesCharacterization checks that the
// generators keep each spec's read/write mix.
func TableII(o Options) ([]workload.Spec, *report.Table) {
	ss := specs(o)
	t := report.New("Table II: benchmark characterization",
		"workload", "category", "mem reads", "mem writes", "r/w",
		"buffer hit", "D$ read hit", "D$ write hit", "multi")
	for _, s := range ss {
		multi := ""
		if s.MultiThread {
			multi = "yes"
		}
		t.Add(s.Name, string(s.Category),
			report.Count(s.Reads), report.Count(s.Writes),
			report.F(s.ReadWriteRatio(), 1),
			report.Count(s.BufferHits),
			report.Pct(s.DReadHit), report.Pct(s.DWriteHit), multi)
	}
	t.Note("reads/writes are Table II's memory-level reference counts; the sampled run preserves their mix")
	return ss, t
}

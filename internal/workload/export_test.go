package workload

// StreamDigest exposes streamDigest to the package's external tests, which
// build generator sets through cpu.Fanout (cpu imports this package).
var StreamDigest = streamDigest

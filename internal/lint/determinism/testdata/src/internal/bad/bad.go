// Package bad exercises every source in the host-state table.
package bad

import (
	crand "crypto/rand"
	"math/rand"
	"os"
	"time"
)

func Timestamps() int64 {
	t := time.Now()    // want `time\.Now in simulation code`
	time.Sleep(5)      // want `time\.Sleep in simulation code`
	d := time.Since(t) // want `time\.Since in simulation code`
	return t.UnixNano() + int64(d)
}

func Random() int {
	rand.Seed(42)            // want `math/rand \(rand\.Seed\)`
	n := rand.Intn(10)       // want `math/rand \(rand\.Intn\)`
	f := rand.Float64()      // want `math/rand \(rand\.Float64\)`
	src := rand.NewSource(1) // want `math/rand \(rand\.NewSource\)`
	_ = rand.New(src)        // want `math/rand \(rand\.New\)`
	return n + int(f)
}

func Entropy(buf []byte) {
	crand.Read(buf) // want `crypto/rand \(crand\.Read\)`
}

func Environment() ([]byte, error) {
	_ = os.Getenv("LIGHTPC_SEED")          // want `os\.Getenv in simulation code`
	return os.ReadFile("/etc/lightpc.cfg") // want `os\.ReadFile in simulation code`
}

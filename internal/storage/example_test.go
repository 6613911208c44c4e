package storage_test

import (
	"fmt"

	"husgraph/internal/storage"
)

// ExampleDevice shows how the simulated device charges sequential and
// random accesses differently — the asymmetry the whole paper exploits.
func ExampleDevice() {
	dev := storage.NewDevice(storage.HDD)

	dev.ReadSeq(1 << 20)    // stream 1 MiB
	dev.ReadRand(1<<10, 16) // sixteen 64 B pokes
	stats := dev.Stats()

	fmt.Printf("sequential bytes: %d\n", stats.SeqReadBytes)
	fmt.Printf("random accesses:  %d\n", stats.RandAccesses)
	fmt.Println("random slower than sequential per byte:",
		storage.HDD.RandTime(1<<10, 16) > storage.HDD.SeqTime(1<<10))
	// Output:
	// sequential bytes: 1048576
	// random accesses:  16
	// random slower than sequential per byte: true
}

// ExampleProfile_RandTime prices small random accesses against streaming
// the same bytes — the two costs the paper's §3.4 predictor weighs (its
// T_random and T_sequential).
func ExampleProfile_RandTime() {
	const accesses = 1000
	random := storage.HDD.RandTime(64*accesses, accesses)
	seq := storage.HDD.SeqTime(64 * accesses)
	fmt.Println("64B random accesses take over 100x the time of streaming their bytes:", random > 100*seq)
	// Output:
	// 64B random accesses take over 100x the time of streaming their bytes: true
}

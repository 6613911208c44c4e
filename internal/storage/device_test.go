package storage

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"hdd", "ssd", "nvme", "ram"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("ProfileByName(%q): %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("ProfileByName(%q).Name = %q", name, p.Name)
		}
	}
	if _, err := ProfileByName("floppy"); err == nil {
		t.Fatal("ProfileByName(floppy) succeeded")
	}
}

func TestSeqTime(t *testing.T) {
	p := Profile{SeqBytesPerSec: 100e6}
	got := p.SeqTime(100e6)
	if got != time.Second {
		t.Fatalf("SeqTime(100MB) = %v, want 1s", got)
	}
	if p.SeqTime(0) != 0 || p.SeqTime(-5) != 0 {
		t.Fatal("SeqTime of non-positive bytes should be 0")
	}
}

func TestRandTimeIncludesLatency(t *testing.T) {
	p := Profile{RandBytesPerSec: 100e6, AccessLatency: 10 * time.Millisecond}
	got := p.RandTime(100e6, 5)
	want := time.Second + 50*time.Millisecond
	if got != want {
		t.Fatalf("RandTime = %v, want %v", got, want)
	}
}

func TestRandomAccessesCostMoreWhenSmall(t *testing.T) {
	// The central premise of the paper: for HDD, moving bytes in small
	// random accesses is orders of magnitude slower than streaming them.
	// ROP's selective loads move ~tens of bytes per access at our dataset
	// scale, so probe at 64 bytes.
	const accesses = 1 << 20
	small := HDD.RandTime(64*accesses, accesses)
	if seq := HDD.SeqTime(64 * accesses); small <= 50*seq {
		t.Fatalf("HDD: %d 64B random accesses take %v, too close to the %v of streaming the same bytes", accesses, small, seq)
	}
	if large := HDD.RandTime(64*accesses, 1); large >= small {
		t.Fatal("the same bytes in one access should cost less than in many")
	}
}

// randomPenalty is how many times longer p takes to move n 8 KiB accesses
// than to stream their bytes.
func randomPenalty(p Profile) float64 {
	const n = 1 << 16
	return float64(p.RandTime(8192*n, n)) / float64(p.SeqTime(8192*n))
}

func TestSSDRandomPenaltySmallerThanHDD(t *testing.T) {
	// Fig. 11's premise: HUS benefits more from SSD because selective
	// (random) access is relatively cheaper there.
	if hdd, ssd := randomPenalty(HDD), randomPenalty(SSD); ssd >= hdd {
		t.Fatalf("SSD rand/seq time ratio %.1f should be below HDD's %.1f", ssd, hdd)
	}
}

func TestDeviceCharging(t *testing.T) {
	d := NewDevice(Profile{Name: "t", SeqBytesPerSec: 1e6, RandBytesPerSec: 1e6, AccessLatency: time.Millisecond})
	d.ReadSeq(1e6)
	d.ReadRand(500e3, 10)
	d.WriteSeq(250e3)
	s := d.Stats()
	if s.SeqReadBytes != 1e6 || s.RandReadBytes != 500e3 {
		t.Fatalf("read bytes: %+v", s)
	}
	if s.SeqWriteBytes != 250e3 {
		t.Fatalf("write bytes: %+v", s)
	}
	if s.RandAccesses != 10 {
		t.Fatalf("rand accesses = %d, want 10", s.RandAccesses)
	}
	wantIO := time.Second + // seq read
		500*time.Millisecond + 10*time.Millisecond + // rand read
		250*time.Millisecond // seq write
	if diff := s.SimIO - wantIO; diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("SimIO = %v, want %v", s.SimIO, wantIO)
	}
}

func TestDeviceZeroAndNegativeChargesIgnored(t *testing.T) {
	d := NewDevice(HDD)
	d.ReadSeq(0)
	d.ReadSeq(-10)
	d.ReadRand(0, 0)
	d.WriteSeq(0)
	if s := d.Stats(); s.TotalBytes() != 0 || s.SimIO != 0 {
		t.Fatalf("stats after no-op charges: %+v", s)
	}
}

func TestDeviceReset(t *testing.T) {
	d := NewDevice(HDD)
	d.ReadSeq(123)
	d.Reset()
	if s := d.Stats(); s.TotalBytes() != 0 || s.SimIO != 0 || s.SeqOps != 0 {
		t.Fatalf("stats after Reset: %+v", s)
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{SeqReadBytes: 10, RandReadBytes: 5, SeqWriteBytes: 5, RandAccesses: 7, SeqOps: 1, SimIO: time.Second}
	b := Stats{SeqReadBytes: 4, RandReadBytes: 1, SeqWriteBytes: 2, RandAccesses: 2, SeqOps: 1, SimIO: 100 * time.Millisecond}
	sum := a.Add(b)
	if sum.ReadBytes() != 20 || sum.WriteBytes() != 7 || sum.TotalBytes() != 27 {
		t.Fatalf("Add: %+v", sum)
	}
	diff := sum.Sub(b)
	if diff != a {
		t.Fatalf("Sub: %+v != %+v", diff, a)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{SeqReadBytes: 1e6, RandAccesses: 3, SimIO: time.Second}
	if got := s.String(); got == "" {
		t.Fatal("empty String")
	}
}

func TestDeviceConcurrentCharging(t *testing.T) {
	d := NewDevice(Profile{Name: "t", SeqBytesPerSec: 1e9, RandBytesPerSec: 1e9, AccessLatency: time.Microsecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				d.ReadSeq(100)
				d.ReadRand(10, 1)
			}
		}()
	}
	wg.Wait()
	s := d.Stats()
	if s.SeqReadBytes != 8*1000*100 {
		t.Fatalf("SeqReadBytes = %d", s.SeqReadBytes)
	}
	if s.RandAccesses != 8000 {
		t.Fatalf("RandAccesses = %d", s.RandAccesses)
	}
}

// Property: simulated time is monotone in bytes for every profile.
func TestQuickSeqTimeMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		for _, p := range []Profile{HDD, SSD, NVMe, RAM} {
			if p.SeqTime(x) > p.SeqTime(y) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: random accesses never move bytes faster than the random
// transfer bandwidth, and every access adds its latency on top.
func TestQuickRandTimeAtLeastTransfer(t *testing.T) {
	f := func(sz uint32, accesses uint16) bool {
		for _, p := range []Profile{HDD, SSD, NVMe} {
			transfer := time.Duration(float64(sz) / p.RandBytesPerSec * float64(time.Second))
			if got := p.RandTime(int64(sz), int64(accesses)); got != transfer+time.Duration(accesses)*p.AccessLatency {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"husgraph/internal/bitset"
	"husgraph/internal/storage"
)

// StatefulProgram is implemented by programs that hold internal
// per-vertex state beyond the engine-managed values (e.g. PageRank-Delta's
// residuals). The engine persists that state inside checkpoints so resumed
// runs continue exactly.
type StatefulProgram interface {
	Program
	// SaveState serializes the program's internal state.
	SaveState() []byte
	// LoadState restores a state produced by SaveState. It is called
	// after Init.
	LoadState(data []byte) error
}

// checkpoint is the engine's resumable state: the next iteration number,
// the current vertex values and frontier, and optional program state.
type checkpoint struct {
	iter      int
	values    []float64
	frontier  *bitset.Frontier
	progState []byte
}

const checkpointMagic = "HUSK"

// encodeCheckpoint serializes a checkpoint.
func encodeCheckpoint(c *checkpoint) []byte {
	n := len(c.values)
	members := c.frontier.Members()
	size := 4 + 8 + 8 + n*8 + 8 + len(members)*4 + 8 + len(c.progState)
	buf := make([]byte, 0, size)
	var scratch [8]byte
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		buf = append(buf, scratch[:]...)
	}
	buf = append(buf, checkpointMagic...)
	put64(uint64(c.iter))
	put64(uint64(n))
	for _, v := range c.values {
		put64(math.Float64bits(v))
	}
	put64(uint64(len(members)))
	for _, m := range members {
		binary.LittleEndian.PutUint32(scratch[:4], uint32(m))
		buf = append(buf, scratch[:4]...)
	}
	put64(uint64(len(c.progState)))
	buf = append(buf, c.progState...)
	return buf
}

// decodeCheckpoint parses a checkpoint for a graph of n vertices whose run
// is bounded by maxIter iterations. The iteration field is validated
// against that bound: a corrupted counter would otherwise decode to a
// huge (or negative) value and silently skip the entire run on resume.
func decodeCheckpoint(buf []byte, n, maxIter int) (*checkpoint, error) {
	fail := func(msg string) (*checkpoint, error) {
		return nil, fmt.Errorf("core: bad checkpoint: %s", msg)
	}
	if len(buf) < 20 || string(buf[:4]) != checkpointMagic {
		return fail("magic")
	}
	c := &checkpoint{}
	c.iter = int(binary.LittleEndian.Uint64(buf[4:]))
	if c.iter < 0 || c.iter > maxIter {
		return fail(fmt.Sprintf("iteration %d outside [0, %d]", c.iter, maxIter))
	}
	if got := int(binary.LittleEndian.Uint64(buf[12:])); got != n {
		return fail(fmt.Sprintf("vertex count %d, want %d", got, n))
	}
	off := 20
	if len(buf) < off+n*8+8 {
		return fail("truncated values")
	}
	c.values = make([]float64, n)
	for v := 0; v < n; v++ {
		c.values[v] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	members := int(binary.LittleEndian.Uint64(buf[off:]))
	off += 8
	if members < 0 || members > n || len(buf) < off+members*4+8 {
		return fail("truncated frontier")
	}
	c.frontier = bitset.NewFrontier(n)
	for k := 0; k < members; k++ {
		m := int(binary.LittleEndian.Uint32(buf[off:]))
		if m >= n {
			return fail(fmt.Sprintf("frontier member %d out of range", m))
		}
		c.frontier.Add(m)
		off += 4
	}
	stateLen := int(binary.LittleEndian.Uint64(buf[off:]))
	off += 8
	if stateLen < 0 || len(buf) != off+stateLen {
		return fail("truncated program state")
	}
	if stateLen > 0 {
		c.progState = append([]byte(nil), buf[off:]...)
	}
	return c, nil
}

// Checkpoint blob naming. Checkpoints are written to two alternating
// generation slots, ckpt-<prog>.g0 and ckpt-<prog>.g1, so a crash (or torn
// write) while persisting the newest checkpoint can never destroy the
// previous good one: the next Resume validates the newest generation's
// checksum frame and decode, and falls back to the other generation when
// it is truncated or corrupt.
func checkpointGenName(prog Program, slot int) string {
	return fmt.Sprintf("ckpt-%s.g%d", prog.Name(), slot)
}

// writeCheckpoint persists the current run state into the engine's next
// generation slot, then flips the slot so consecutive checkpoints
// alternate between g0 and g1.
func (e *Engine) writeCheckpoint(prog Program, iter int, values []float64, frontier *bitset.Frontier) error {
	c := &checkpoint{iter: iter, values: values, frontier: frontier}
	if sp, ok := prog.(StatefulProgram); ok {
		c.progState = sp.SaveState()
	}
	if err := e.ds.PutAux(checkpointGenName(prog, e.ckptSlot), encodeCheckpoint(c)); err != nil {
		return err
	}
	e.ckptSlot ^= 1
	return nil
}

// loadCheckpoint restores the most advanced decodable checkpoint
// generation, returning (nil, fallbacks, nil) when none exists. Corrupt or
// truncated generations are skipped and counted in fallbacks rather than
// failing the run — that is the entire point of keeping two generations.
// Errors other than not-found/corruption (e.g. a permanent device failure)
// still propagate.
func (e *Engine) loadCheckpoint(prog Program) (*checkpoint, int, error) {
	var best *checkpoint
	bestSlot := 0
	fallbacks := 0
	for slot := 0; slot < 2; slot++ {
		buf, err := e.ds.GetAux(checkpointGenName(prog, slot))
		if errors.Is(err, storage.ErrNotFound) {
			continue
		}
		if errors.Is(err, storage.ErrCorrupt) {
			fallbacks++
			continue
		}
		if err != nil {
			return nil, fallbacks, err
		}
		c, err := decodeCheckpoint(buf, e.ds.Layout.NumVertices, e.cfg.MaxIters)
		if err != nil {
			fallbacks++
			continue
		}
		if best == nil || c.iter > best.iter {
			best, bestSlot = c, slot
		}
	}
	if best == nil {
		// No usable checkpoint: start fresh (recorded in RecoveryStats
		// when generations were skipped as corrupt).
		e.ckptSlot = 0
		return nil, fallbacks, nil
	}
	if best.progState != nil {
		sp, ok := prog.(StatefulProgram)
		if !ok {
			return nil, fallbacks, fmt.Errorf("core: checkpoint holds program state but %s is not stateful", prog.Name())
		}
		if err := sp.LoadState(best.progState); err != nil {
			return nil, fallbacks, fmt.Errorf("core: restore %s state: %w", prog.Name(), err)
		}
	}
	// The next checkpoint must overwrite the *other* slot, preserving the
	// generation we just resumed from until a newer one lands safely.
	e.ckptSlot = bestSlot ^ 1
	return best, fallbacks, nil
}

// SaveStateFloats is a helper for StatefulProgram implementations whose
// state is a float64 slice (residuals, degrees, ...).
func SaveStateFloats(vals []float64) []byte {
	buf := make([]byte, 8+len(vals)*8)
	binary.LittleEndian.PutUint64(buf, uint64(len(vals)))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8+i*8:], math.Float64bits(v))
	}
	return buf
}

// LoadStateFloats parses a SaveStateFloats payload into dst, which must
// have the recorded length.
func LoadStateFloats(data []byte, dst []float64) error {
	if len(data) < 8 {
		return fmt.Errorf("core: state too short")
	}
	n := int(binary.LittleEndian.Uint64(data))
	if n != len(dst) || len(data) != 8+n*8 {
		return fmt.Errorf("core: state holds %d floats for %d slots", n, len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8+i*8:]))
	}
	return nil
}

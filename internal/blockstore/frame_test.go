package blockstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"time"

	"husgraph/internal/graph"
	"husgraph/internal/storage"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)} {
		got, err := unframeBlob("blob", frameBlob(payload))
		if err != nil {
			t.Fatalf("unframe: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mangled: %q != %q", got, payload)
		}
	}
}

// frameV2 is the version-2 frame mixed stores wrote until PR 29: the
// version-1 header with version 2, then one codec tag byte, then payload.
func frameV2(payload []byte, c Codec) []byte {
	v1 := frameBlob(payload)
	buf := append(append(v1[:frameHeaderLen:frameHeaderLen], byte(c)), payload...)
	buf[4] = 2
	return buf
}

// TestFrameV2DetectsCorruption: no tagged frame is read any more, so a
// version-2 blob is refused as corrupt whether it is intact or damaged —
// never unframed with its tag byte taken for payload.
func TestFrameV2DetectsCorruption(t *testing.T) {
	payload := []byte("compressed payload bytes, CRC is over these stored bytes")
	good := frameV2(payload, CodecVarint)
	cases := map[string]func([]byte) []byte{
		"intact":          func(b []byte) []byte { return b },
		"payload-bitflip": func(b []byte) []byte { b[frameHeaderLen+4] ^= 0x10; return b },
		"bad-codec-tag":   func(b []byte) []byte { b[17] = 99; return b },
		"rle-codec-tag":   func(b []byte) []byte { b[17] = 2; return b }, // byte-RLE until PR 25
		"truncated":       func(b []byte) []byte { return b[:len(b)-5] },
		"header-only":     func(b []byte) []byte { return b[:frameHeaderLen] },
	}
	for name, mutate := range cases {
		buf := mutate(append([]byte(nil), good...))
		if _, err := unframeBlob("blob", buf); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: err = %v, want wrapped storage.ErrCorrupt", name, err)
		}
	}
}

func TestFrameDetectsCorruption(t *testing.T) {
	payload := []byte("some block payload with enough bytes to flip")
	good := frameBlob(payload)
	cases := map[string]func([]byte) []byte{
		"payload-bitflip": func(b []byte) []byte { b[frameHeaderLen+3] ^= 0x10; return b },
		"header-bitflip":  func(b []byte) []byte { b[6] ^= 0x01; return b },
		"bad-magic":       func(b []byte) []byte { b[0] = 'X'; return b },
		"bad-version":     func(b []byte) []byte { b[4] = 99; return b },
		"version-2":       func(b []byte) []byte { b[4] = 2; return b }, // tagged frames, written until PR 29
		"truncated":       func(b []byte) []byte { return b[:len(b)-5] },
		"too-short":       func(b []byte) []byte { return b[:8] },
		"extra-suffix":    func(b []byte) []byte { return append(b, 0) },
	}
	for name, mutate := range cases {
		buf := mutate(append([]byte(nil), good...))
		if _, err := unframeBlob("blob", buf); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: err = %v, want wrapped storage.ErrCorrupt", name, err)
		}
	}
}

// chain returns 0→1→…→n-1.
func chain(n int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(graph.VertexID(i), graph.VertexID(i+1))
	}
	return g
}

func TestBuildWritesFramedBlobsAndOpenVerifies(t *testing.T) {
	mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
	if _, err := BuildOpts(mem, chain(64), Options{P: 4, Weighted: true}); err != nil {
		t.Fatal(err)
	}
	for _, name := range mem.List() {
		b, err := mem.ReadAll(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := unframeBlob(name, b); err != nil {
			t.Fatalf("blob %s written without a valid checksum frame: %v", name, err)
		}
	}
	d, err := Open(mem)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loadInBlock(d, 0, 0); err != nil {
		t.Fatalf("framed load: %v", err)
	}
}

// denseMeta is the meta blob the commit before the sparse in-index wrote for
// chain(4) at P = 2, FormatRaw — frame, "HUSB" header, degrees, and the edge
// count, out-block and in-block size grids, no in-index grid: its ii/ blobs
// hold Size(j)+1 offsets each.
const denseMeta = "" +
	"485553460192dd40dda400000000000000" +
	"485553420400000000000000020000000000000000000000000000000100000000000000" +
	"0100000000000000010000000100000001000000010000000000000001000000" +
	"0100000000000000010000000000000000000000000000000100000000000000" +
	"0800000000000000080000000000000000000000000000000800000000000000" +
	"0800000000000000080000000000000000000000000000000800000000000000"

// openWithMeta builds a small store, replaces its meta blob with what
// rewrite makes of the verified meta payload, and returns Open's error.
func openWithMeta(t *testing.T, format Format, rewrite func(meta []byte) []byte) error {
	t.Helper()
	mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
	if _, err := BuildOpts(mem, chain(64), Options{P: 4, Format: format, Weighted: true}); err != nil {
		t.Fatal(err)
	}
	framed, err := mem.ReadAll(metaName)
	if err != nil {
		t.Fatal(err)
	}
	meta, err := unframeBlob(metaName, framed)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put(metaName, rewrite(append([]byte(nil), meta...))); err != nil {
		t.Fatal(err)
	}
	_, err = Open(mem)
	return err
}

// TestOpenRejectsOlderStores: there is no unframed read path, no tagged
// frame, no dense in-index reader and no codec grid. A store whose meta blob
// carries no frame (written before framing existed) or a version-2 one (a
// mixed store before PR 29), or whose meta is laid out under an older magic
// — "HUSB" before the in-index went sparse, "HUSC" while the meta recorded
// a format and codec grids, "HUSD" before it recorded the out-blocks'
// source masks, "HUSE" before it recorded the out-indices' page CRCs,
// "HUSF" while it recorded the stored sizes of a row view a mixed store
// could compress, "HUSG" before a raw store's in-blocks became CodecCOO
// records, "HUSH" while out-block records held global destinations, "HUSI"
// while a mixed store kept varint in-indices, "HUSJ" while wide in-blocks
// kept an in-index and the meta a grid of their destination counts — is
// refused with the one message that says how to rebuild it.
// The magic alone decides: past it, nothing is read.
func TestOpenRejectsOlderStores(t *testing.T) {
	for _, c := range []struct {
		name    string
		format  Format
		rewrite func(meta []byte) []byte // verified meta payload → stored blob
	}{
		{"unframed", FormatRaw, func(meta []byte) []byte { return meta }},
		{"version-2 frame", FormatMixed, func(meta []byte) []byte {
			framed := frameBlob(meta)
			framed[4] = 2
			return framed
		}},
		{"dense-in-index", FormatRaw, func([]byte) []byte {
			old, err := hex.DecodeString(denseMeta)
			if err != nil {
				t.Fatal(err)
			}
			return old
		}},
		{"format-and-codec-grids", FormatMixed, func(meta []byte) []byte {
			copy(meta, "HUSC")
			return frameBlob(meta)
		}},
		{"no-source-masks", FormatRaw, func(meta []byte) []byte {
			// chain(64) at P = 4: the header, 64 degree pairs and six 4×4
			// grids, which is all a "HUSD" meta held.
			copy(meta, "HUSD")
			return frameBlob(append(meta[:metaHeaderLen+64*8], make([]byte, 6*4*4*8)...))
		}},
		{"no-page-crcs", FormatRaw, func(meta []byte) []byte {
			// The same store's 16 out-indices are one page each: without
			// their CRCs, this is the "HUSE" meta but for its two grids of
			// row-view sizes.
			copy(meta, "HUSE")
			return frameBlob(meta[:len(meta)-16*4])
		}},
		{"row-view-size-grids", FormatMixed, func(meta []byte) []byte {
			copy(meta, "HUSF")
			return frameBlob(meta)
		}},
		{"raw-in-indices", FormatRaw, func(meta []byte) []byte {
			copy(meta, "HUSG")
			return frameBlob(meta)
		}},
		{"global-out-records", FormatMixed, func(meta []byte) []byte {
			copy(meta, "HUSH")
			return frameBlob(meta)
		}},
		{"varint-in-indices", FormatMixed, func(meta []byte) []byte {
			copy(meta, "HUSI")
			return frameBlob(meta)
		}},
		{"destination-count-grid", FormatRaw, func(meta []byte) []byte {
			copy(meta, "HUSJ")
			return frameBlob(meta)
		}},
	} {
		err := openWithMeta(t, c.format, c.rewrite)
		if !errors.Is(err, errOlderStore) || !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("%s: Open: err = %v, want storage.ErrCorrupt-class %q", c.name, err, errOlderStore)
		}
	}
}

// TestOpenRefusesMetaItCannotSize: n and P are read from the payload, so
// they are bounded by the payload's length before anything is allocated
// from them. In the first, 6·P²·8 wraps to 0 and the 28 bytes pass for a
// complete meta of an empty graph; in the second n·8 wraps the same way.
func TestOpenRefusesMetaItCannotSize(t *testing.T) {
	for _, c := range []struct {
		name string
		n, p uint64
	}{
		{"p-squared-wraps", 0, 1 << 31},
		{"n-wraps", 1 << 61, 0},
	} {
		err := openWithMeta(t, FormatRaw, func([]byte) []byte { return frameBlob(overflowMeta(c.n, c.p)) })
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("%s: Open: err = %v, want storage.ErrCorrupt-class", c.name, err)
		}
	}
}

// TestDecodeMetaRefusesBadCOOFlags: the layout and the stored size say how
// every in-block is laid out — CodecCOO tiles, or CodecVarint ones where
// the block is stored in fewer bytes — so a meta is refused,
// storage.ErrCorrupt-class, when it sets a flag no build sets (the bit that
// marked CodecCOO in-blocks before they were read off the layout among
// them), or records for a tiled block more bytes than its records and tile
// directory take.
func TestDecodeMetaRefusesBadCOOFlags(t *testing.T) {
	coo, err := BuildOpts(memStore(), chain(300), Options{P: 4})
	if err != nil {
		t.Fatal(err)
	}
	wideGraph := graph.New(MaxCOOInterval + 1)
	wideGraph.AddEdge(0, MaxCOOInterval)
	wide, err := BuildOpts(memStore(), wideGraph, Options{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	if coo.InCodec(0, 0) != CodecCOO || wide.InCodec(0, 0) != CodecCOO || wide.InBlockBytes[0][0] != 4+4*4 {
		t.Fatalf("in-blocks %v over intervals of %d, %v in %d bytes over %d", coo.InCodec(0, 0), coo.Layout.Size(0), wide.InCodec(0, 0), wide.InBlockBytes[0][0], wide.Layout.Size(0))
	}
	for _, d := range []*DualStore{coo, wide} {
		if _, err := decodeMeta(encodeMeta(d)); err != nil {
			t.Fatalf("honest meta refused: %v", err)
		}
	}
	lies := map[string]func() []byte{
		"an unknown flag": func() []byte {
			meta := encodeMeta(coo)
			meta[20] |= 4
			return meta
		},
		"the CodecCOO flag of an older build": func() []byte {
			meta := encodeMeta(coo)
			meta[20] |= 2
			return meta
		},
		"a tiled block stored past its records and directory": func() []byte {
			lie := *wide
			lie.InBlockBytes = [][]int64{{wide.InBlockBytes[0][0] + 1}}
			return encodeMeta(&lie)
		},
	}
	for what, meta := range lies {
		if _, err := decodeMeta(meta()); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("%s: decodeMeta err = %v, want storage.ErrCorrupt-class", what, err)
		}
	}
}

// overflowMeta is a header-only unweighted meta payload claiming n vertices
// in p intervals.
func overflowMeta(n, p uint64) []byte {
	buf := append(make([]byte, 0, metaHeaderLen), metaMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, n)
	buf = binary.LittleEndian.AppendUint64(buf, p)
	return binary.LittleEndian.AppendUint64(buf, 0)
}

// Every structural mismatch the in-block loader can find is corruption by
// class, not only a bad CRC: here an index and a payload that each verify
// but come from two different builds.
func TestInBlockFromTwoBuildsIsCorrupt(t *testing.T) {
	for _, format := range []Format{FormatRaw, FormatMixed} {
		mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
		d, err := BuildOpts(mem, chain(64), Options{P: 4, Format: format, Weighted: true})
		if err != nil {
			t.Fatal(err)
		}
		other := storage.NewMemStore(storage.NewDevice(storage.RAM))
		if _, err := BuildOpts(other, mixedGraph(true), Options{P: 4, Format: format, Weighted: true}); err != nil {
			t.Fatal(err)
		}
		foreign, err := other.ReadAll("ib/0.1")
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Put("ib/0.1", foreign); err != nil {
			t.Fatal(err)
		}
		if _, err := loadInBlock(d, 0, 1); !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("%v: index and payload from two builds: err = %v, want storage.ErrCorrupt-class", format, err)
		}
	}
}

func TestCorruptBlockSurfacesChecksumError(t *testing.T) {
	mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
	d, err := BuildOpts(mem, chain(64), Options{P: 4, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit of an in-block behind the store's back.
	name := "ib/0.1"
	b, err := mem.ReadAll(name)
	if err != nil {
		t.Fatal(err)
	}
	b[frameHeaderLen] ^= 0x04
	if err := mem.Put(name, b); err != nil {
		t.Fatal(err)
	}
	_, err = loadInBlock(d, 0, 1)
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("corrupt block load: err = %v, want wrapped storage.ErrCorrupt", err)
	}
}

func TestAuxBlobsFramedAndVerified(t *testing.T) {
	mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
	d, err := BuildOpts(mem, chain(16), Options{P: 2, Weighted: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PutAux("ckpt-test", []byte("checkpoint payload")); err != nil {
		t.Fatal(err)
	}
	got, err := d.GetAux("ckpt-test")
	if err != nil || string(got) != "checkpoint payload" {
		t.Fatalf("GetAux = %q, %v", got, err)
	}
	// Truncate the framed blob: read must fail as corrupt, not decode.
	raw, err := mem.ReadAll("aux/ckpt-test")
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put("aux/ckpt-test", raw[:len(raw)-4]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GetAux("ckpt-test"); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("truncated aux read: err = %v, want wrapped storage.ErrCorrupt", err)
	}
}

func TestRetryRecoversTransientReads(t *testing.T) {
	mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
	if _, err := BuildOpts(mem, chain(64), Options{P: 4, Weighted: true}); err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFaultStore(mem, 1)
	d, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	var slept []time.Duration
	d.SetRetryPolicy(RetryPolicy{
		MaxRetries: 3,
		Backoff:    100 * time.Millisecond,
		Sleep:      func(dur time.Duration) { slept = append(slept, dur) },
	})
	// Three consecutive transient failures on in-block reads: attempt,
	// retry-fail, retry-fail, retry-succeed.
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, Name: "ib/", Count: 3})
	blk, err := loadInBlock(d, 0, 1)
	if err != nil {
		t.Fatalf("transient faults not retried: %v", err)
	}
	if len(blk.Recs) == 0 {
		t.Fatal("retried load decoded empty")
	}
	if got := d.Retries(); got != 3 {
		t.Fatalf("Retries() = %d, want 3", got)
	}
	// Exponential backoff: 100ms, 200ms, then the 250ms cap.
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, retryBackoffMax}
	if !reflect.DeepEqual(slept, want) {
		t.Fatalf("backoff sequence = %v, want %v", slept, want)
	}
}

func TestRetryBudgetExhaustedSurfacesTransient(t *testing.T) {
	mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
	if _, err := BuildOpts(mem, chain(64), Options{P: 4, Weighted: true}); err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFaultStore(mem, 1)
	d, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	d.SetRetryPolicy(RetryPolicy{MaxRetries: 2})
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultTransient, Name: "ib/"})
	if _, err := loadInBlock(d, 0, 1); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("exhausted retries: err = %v, want wrapped storage.ErrTransient", err)
	}
	if got := d.Retries(); got != 2 {
		t.Fatalf("Retries() = %d, want 2", got)
	}
}

func TestRetryDoesNotRetryPermanentOrCorrupt(t *testing.T) {
	mem := storage.NewMemStore(storage.NewDevice(storage.RAM))
	if _, err := BuildOpts(mem, chain(64), Options{P: 4, Weighted: true}); err != nil {
		t.Fatal(err)
	}
	fs := storage.NewFaultStore(mem, 1)
	d, err := Open(fs)
	if err != nil {
		t.Fatal(err)
	}
	d.SetRetryPolicy(RetryPolicy{MaxRetries: 5})

	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultPermanent, Name: "ib/", Count: 1})
	if _, err := loadInBlock(d, 0, 1); !errors.Is(err, storage.ErrPermanent) {
		t.Fatalf("permanent fault: err = %v", err)
	}
	if got := d.Retries(); got != 0 {
		t.Fatalf("permanent fault retried %d times", got)
	}

	// Bit-flip corruption: detected by the checksum, not retried.
	fs.Inject(storage.Fault{Op: storage.OpRead, Kind: storage.FaultBitFlip, Name: "ib/0.1", Count: 1})
	if _, err := loadInBlock(d, 0, 1); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("bit-flip read: err = %v, want wrapped storage.ErrCorrupt", err)
	}
	if got := d.Retries(); got != 0 {
		t.Fatalf("corruption retried %d times", got)
	}
}

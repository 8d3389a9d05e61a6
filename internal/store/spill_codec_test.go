package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"treemine/internal/core"
)

// TestRunCodecZeroAlloc: encoding and decoding a spill record allocates
// nothing — the record buffer and the CRC live in the writer and reader.
func TestRunCodecZeroAlloc(t *testing.T) {
	const n = 500
	it := core.ShardItem{A: 3, B: 70000, D: core.D(5), N: 1 << 40}

	w, err := newRunWriter(io.Discard, magicSeg, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(n-1, func() {
		if err := w.write(it); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("runWriter.write: %v allocs per record, want 0", allocs)
	}

	var buf bytes.Buffer
	w, err = newRunWriter(&buf, magicSeg, nil, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.write(it); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.finish(); err != nil {
		t.Fatal(err)
	}
	r, _, err := newRunReader(bytes.NewReader(buf.Bytes()), magicSeg, false)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(n-1, func() {
		if got, err := r.next(); err != nil || got != it {
			t.Fatalf("next = %+v, %v; want %+v", got, err, it)
		}
	}); allocs != 0 {
		t.Fatalf("runReader.next: %v allocs per record, want 0", allocs)
	}
	if _, err := r.next(); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
}

// TestSpilledShardHugeHeaderBoundedAlloc: a 16-byte file whose header
// length claims 1 GiB is ErrCorrupt, and reading it allocates only what
// the file holds, not what it claims.
func TestSpilledShardHugeHeaderBoundedAlloc(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.shard")
	if err := os.WriteFile(path, binary.LittleEndian.AppendUint32([]byte(magicSpill), 1<<30), 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := VerifyShardFile(path, core.DefaultForestOptions())
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting the file allocated %d bytes, want < 1 MiB", alloc)
	}
}

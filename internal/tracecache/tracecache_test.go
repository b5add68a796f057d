package tracecache

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"onchip/internal/telemetry"
	"onchip/internal/trace"
)

func randRefs(rng *rand.Rand, n int) []trace.Ref {
	refs := make([]trace.Ref, 0, n)
	addr := uint32(rng.Intn(1 << 24))
	asid := uint8(rng.Intn(4))
	for len(refs) < n {
		switch rng.Intn(5) {
		case 0: // context switch
			asid = uint8(rng.Intn(64))
		case 1: // jump
			addr = uint32(rng.Uint64())
		}
		kind := trace.Kind(rng.Intn(3))
		mode := trace.User
		if rng.Intn(4) == 0 {
			mode = trace.Kernel
		}
		refs = append(refs, trace.Ref{Addr: addr, ASID: asid, Kind: kind, Mode: mode})
		addr += 4
	}
	return refs
}

func record(t *testing.T, c *Cache, k Key, segs [][]trace.Ref) {
	t.Helper()
	w, err := c.NewWriter(k)
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		w.Refs(seg)
		if i < len(segs)-1 {
			w.EndSegment()
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func replayAll(t *testing.T, e *Entry, want int) [][]trace.Ref {
	t.Helper()
	defer e.Close()
	var segs [][]trace.Ref
	for {
		var got []trace.Ref
		sink := trace.SinkFunc(func(r trace.Ref) { got = append(got, r) })
		n, last, err := e.ReplaySegment(context.Background(), sink)
		if err != nil {
			t.Fatalf("segment %d: %v", len(segs), err)
		}
		if n != uint64(len(got)) {
			t.Fatalf("segment %d: reported %d refs, delivered %d", len(segs), n, len(got))
		}
		segs = append(segs, got)
		if last {
			break
		}
	}
	if len(segs) != want {
		t.Fatalf("replayed %d segments, want %d", len(segs), want)
	}
	return segs
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	c.Describe(reg)
	k := Key{Workload: "mpeg_play", OS: "Mach", Seed: 0x9e6, Refs: 300_000, Model: "spec-v1"}

	// Three segments, the middle one spanning several blocks and the
	// last one empty -- the sweep's phase plan can produce all three.
	segs := [][]trace.Ref{randRefs(rng, 1000), randRefs(rng, 3*blockRefs/2), nil}
	record(t, c, k, segs)

	e := c.OpenEntry(k)
	if e == nil {
		t.Fatal("committed entry missed")
	}
	got := replayAll(t, e, len(segs))
	for i := range segs {
		if len(got[i]) != len(segs[i]) {
			t.Fatalf("segment %d: %d refs, want %d", i, len(got[i]), len(segs[i]))
		}
		for j := range segs[i] {
			if got[i][j] != segs[i][j] {
				t.Fatalf("segment %d ref %d: %+v, want %+v", i, j, got[i][j], segs[i][j])
			}
		}
	}
	if h, m := c.hits.Value(), c.misses.Value(); h != 1 || m != 0 {
		t.Errorf("hit/miss = %d/%d, want 1/0", h, m)
	}
	if c.bytes.Value() == 0 {
		t.Error("no bytes counted on commit")
	}
}

func TestMissAndKeySensitivity(t *testing.T) {
	c, _ := Open(t.TempDir())
	reg := telemetry.NewRegistry()
	c.Describe(reg)
	k := Key{Workload: "mab", OS: "Ultrix", Seed: 7, Refs: 10, Model: "m"}
	if c.OpenEntry(k) != nil {
		t.Fatal("hit on empty cache")
	}
	record(t, c, k, [][]trace.Ref{randRefs(rand.New(rand.NewSource(2)), 10)})
	for _, other := range []Key{
		{Workload: "mab2", OS: "Ultrix", Seed: 7, Refs: 10, Model: "m"},
		{Workload: "mab", OS: "Mach", Seed: 7, Refs: 10, Model: "m"},
		{Workload: "mab", OS: "Ultrix", Seed: 8, Refs: 10, Model: "m"},
		{Workload: "mab", OS: "Ultrix", Seed: 7, Refs: 11, Model: "m"},
		{Workload: "mab", OS: "Ultrix", Seed: 7, Refs: 10, Model: "m2"},
	} {
		if e := c.OpenEntry(other); e != nil {
			e.Close()
			t.Errorf("key %+v hit the entry for %+v", other, k)
		}
	}
	if e := c.OpenEntry(k); e == nil {
		t.Error("exact key missed")
	} else {
		e.Close()
	}
}

// TestCorruptFallsBack flips or truncates bytes all over a valid entry
// and demands every mutation either still replays the identical stream
// (bits outside any checked region -- impossible here, but the
// property is what matters) or fails with ErrCorrupt. Wrong data is
// the one unacceptable outcome.
func TestCorruptFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dir := t.TempDir()
	c, _ := Open(dir)
	k := Key{Workload: "w", OS: "Mach", Seed: 1, Refs: 5000, Model: "m"}
	orig := randRefs(rng, 5000)
	record(t, c, k, [][]trace.Ref{orig[:2000], orig[2000:]})
	path := c.path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutated []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		e := c.OpenEntry(k)
		if e == nil {
			return // header-level rejection: a clean miss
		}
		defer e.Close()
		var got []trace.Ref
		sink := trace.SinkFunc(func(r trace.Ref) { got = append(got, r) })
		for seg := 0; ; seg++ {
			_, last, err := e.ReplaySegment(context.Background(), sink)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: error does not match ErrCorrupt: %v", name, err)
				}
				return
			}
			if last {
				break
			}
			if seg > 10 {
				t.Errorf("%s: runaway segment loop", name)
				return
			}
		}
		if len(got) != len(orig) {
			t.Errorf("%s: clean replay of %d refs, want %d", name, len(got), len(orig))
			return
		}
		for i := range got {
			if got[i] != orig[i] {
				t.Errorf("%s: replay delivered wrong data at ref %d", name, i)
				return
			}
		}
	}

	for i := 0; i < 200; i++ {
		mutated := append([]byte(nil), data...)
		pos := rng.Intn(len(mutated))
		mutated[pos] ^= byte(1 + rng.Intn(255))
		check("bitflip", mutated)
	}
	for i := 0; i < 50; i++ {
		check("truncate", data[:rng.Intn(len(data))])
	}
	check("empty", nil)
}

func TestAbortLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	c, _ := Open(dir)
	k := Key{Workload: "w", OS: "Mach", Seed: 1, Refs: 100, Model: "m"}
	w, err := c.NewWriter(k)
	if err != nil {
		t.Fatal(err)
	}
	w.Refs(randRefs(rand.New(rand.NewSource(4)), 100))
	w.Abort()
	if c.OpenEntry(k) != nil {
		t.Error("aborted recording is visible")
	}
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		t.Errorf("leftover file %s", filepath.Join(dir, ent.Name()))
	}
}

func TestReplayCancellation(t *testing.T) {
	c, _ := Open(t.TempDir())
	k := Key{Workload: "w", OS: "Mach", Seed: 1, Refs: 1000, Model: "m"}
	record(t, c, k, [][]trace.Ref{randRefs(rand.New(rand.NewSource(5)), 1000)})
	e := c.OpenEntry(k)
	if e == nil {
		t.Fatal("miss")
	}
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.ReplaySegment(ctx, trace.Discard); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

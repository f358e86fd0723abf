package arena

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func sampleRegions() []NamedRegion {
	return []NamedRegion{
		{Name: "state", Data: []byte(`{"step":3}`)}, // 10 bytes: forces padding
		{Name: "heap", Data: bytes.Repeat([]byte{0xab}, 1000)},
		{Name: "refs", Data: []byte{}},
		{Name: "tail", Data: []byte{1, 2, 3}},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	env := json.RawMessage(`{"goos":"linux"}`)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, "key=abc", 3, env, sampleRegions()); err != nil {
		t.Fatal(err)
	}
	c, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if c.Header.Key != "key=abc" || c.Header.Step != 3 || c.Header.Version != Version {
		t.Fatalf("header mismatch: %+v", c.Header)
	}
	if string(c.Header.Env) != `{"goos":"linux"}` {
		t.Fatalf("env mismatch: %s", c.Header.Env)
	}
	for _, want := range sampleRegions() {
		got, ok := c.Region(want.Name)
		if !ok {
			t.Fatalf("region %q missing", want.Name)
		}
		if !bytes.Equal(got, want.Data) {
			t.Fatalf("region %q: got %d bytes, want %d", want.Name, len(got), len(want.Data))
		}
	}
	// Region offsets must be 8-aligned.
	for _, r := range c.Header.Regions {
		if r.Off%8 != 0 {
			t.Fatalf("region %q offset %d not 8-aligned", r.Name, r.Off)
		}
	}
}

// TestFileCheckpointByteIdentical: the published file holds exactly the
// stream writer's bytes — complete, unpadded, readable.
func TestFileCheckpointByteIdentical(t *testing.T) {
	env := json.RawMessage(`{"goos":"linux"}`)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, "k", 7, env, sampleRegions()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := WriteFileCheckpoint(path, "k", 7, env, sampleRegions()); err != nil {
		t.Fatal(err)
	}
	fileBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), fileBytes) {
		t.Fatalf("stream (%d bytes) and file (%d bytes) checkpoints differ", buf.Len(), len(fileBytes))
	}
	if _, err := ReadCheckpoint(bytes.NewReader(fileBytes)); err != nil {
		t.Fatal(err)
	}
}

func corruptCase(t *testing.T, mutate func([]byte) []byte, wantSub string) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, "k", 1, nil, sampleRegions()); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCheckpoint(bytes.NewReader(mutate(buf.Bytes())))
	if err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not mention %q", err, wantSub)
	}
}

func TestCheckpointRejectsBadMagic(t *testing.T) {
	corruptCase(t, func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic")
}

func TestCheckpointRejectsVersionMismatch(t *testing.T) {
	corruptCase(t, func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:], Version+1)
		return b
	}, "unsupported checkpoint version")
}

func TestCheckpointRejectsTruncation(t *testing.T) {
	corruptCase(t, func(b []byte) []byte { return b[:len(b)-5] }, "truncated")
	corruptCase(t, func(b []byte) []byte { return b[:10] }, "truncated")
	corruptCase(t, func(b []byte) []byte { return b[:20] }, "truncated")
}

func TestCheckpointRejectsPayloadCorruption(t *testing.T) {
	corruptCase(t, func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, "CRC")
}

func TestCheckpointRejectsImplausibleHeaderLen(t *testing.T) {
	corruptCase(t, func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[12:], maxHeaderLen+1)
		return b
	}, "header length")
}

func TestCheckpointRejectsGarbageHeader(t *testing.T) {
	corruptCase(t, func(b []byte) []byte {
		for i := preambleLen; i < preambleLen+8; i++ {
			b[i] = 0xfe
		}
		return b
	}, "corrupt checkpoint header")
}

func TestCheckpointEmptyInput(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

// TestCheckpointHugePayloadLenNoUpfrontAlloc pins the defense against a
// tiny crafted header advertising an enormous payload: the reader must
// fail with a truncation error after reading only what was actually
// sent, not allocate the advertised length up front (which could OOM
// the process before the first payload byte is read).
func TestCheckpointHugePayloadLenNoUpfrontAlloc(t *testing.T) {
	craft := func(payloadLen int64) []byte {
		hdr, err := json.Marshal(Header{Version: Version, Key: "k", PayloadLen: payloadLen})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.WriteString(Magic)
		var u32 [4]byte
		binary.LittleEndian.PutUint32(u32[:], Version)
		buf.Write(u32[:])
		binary.LittleEndian.PutUint32(u32[:], uint32(len(hdr)))
		buf.Write(u32[:])
		buf.Write(hdr)
		buf.Write(make([]byte, roundUp(buf.Len(), 8)-buf.Len()))
		return buf.Bytes()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadCheckpoint(bytes.NewReader(craft(maxPayloadLen)))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("huge advertised payload: got %v, want truncation error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Errorf("reader allocated %d bytes for a header-only input", grew)
	}

	if _, err := ReadCheckpoint(bytes.NewReader(craft(maxPayloadLen + 1))); err == nil ||
		!strings.Contains(err.Error(), "implausible") {
		t.Fatalf("over-limit payload length: got %v, want implausible-length error", err)
	}
	if _, err := ReadCheckpoint(bytes.NewReader(craft(-1))); err == nil ||
		!strings.Contains(err.Error(), "implausible") {
		t.Fatalf("negative payload length: got %v, want implausible-length error", err)
	}
}

// TestFileCheckpointAtomic pins the durability contract's visible
// half: a successful write leaves no temp file behind, and overwriting
// an existing container goes through rename (the old contents are
// never truncated in place — at every instant the path holds one
// complete container).
func TestFileCheckpointAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	if err := WriteFileCheckpoint(path, "k", 1, nil, sampleRegions()); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a different step: must succeed and replace.
	if err := WriteFileCheckpoint(path, "k", 2, nil, sampleRegions()); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file %s left behind after a successful write", e.Name())
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := ReadCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	if c.Header.Step != 2 {
		t.Fatalf("replaced container carries step %d, want 2", c.Header.Step)
	}
}

// TestFileCheckpointFailureKeepsPrevious: when the write cannot
// complete (here: the temp path is a directory, so Create fails), the
// previous container at path is untouched.
func TestFileCheckpointFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	if err := WriteFileCheckpoint(path, "k", 5, nil, sampleRegions()); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileCheckpoint(path, "k", 6, nil, sampleRegions()); err == nil {
		t.Fatal("write through a blocked temp path succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed write perturbed the previous container")
	}
}

// growSink is an in-memory sink that can reserve room: it records every
// Grow and every write that had to reallocate.
type growSink struct {
	b        []byte
	grows    []int
	reallocs int
}

func (g *growSink) Grow(n int) {
	g.grows = append(g.grows, n)
	g.b = append(make([]byte, 0, len(g.b)+n), g.b...)
}

func (g *growSink) Write(p []byte) (int, error) {
	if len(g.b)+len(p) > cap(g.b) {
		g.reallocs++
	}
	g.b = append(g.b, p...)
	return len(p), nil
}

// plainSink hides every method of a buffer but Write.
type plainSink struct{ w *bytes.Buffer }

func (p plainSink) Write(b []byte) (int, error) { return p.w.Write(b) }

// TestWriteCheckpointGrowsOnce: a sink with Grow is grown once, before the
// first byte, to exactly the container's length — no write after it
// reallocates — and a sink without Grow receives the same bytes.
func TestWriteCheckpointGrowsOnce(t *testing.T) {
	env := json.RawMessage(`{"goos":"linux"}`)
	for _, key := range []string{"key=abc", "key=abcd", "k"} { // header lengths with and without padding
		var sink growSink
		if err := WriteCheckpoint(&sink, key, 3, env, sampleRegions()); err != nil {
			t.Fatal(err)
		}
		if len(sink.grows) != 1 || sink.grows[0] != len(sink.b) {
			t.Fatalf("key %q: Grow calls %v, want one of exactly the %d bytes written", key, sink.grows, len(sink.b))
		}
		if sink.reallocs != 0 || cap(sink.b) != len(sink.b) {
			t.Fatalf("key %q: %d writes reallocated and cap is %d for %d bytes: the reservation was not exact",
				key, sink.reallocs, cap(sink.b), len(sink.b))
		}
		var plain, buffer bytes.Buffer
		if err := WriteCheckpoint(plainSink{&plain}, key, 3, env, sampleRegions()); err != nil {
			t.Fatal(err)
		}
		if err := WriteCheckpoint(&buffer, key, 3, env, sampleRegions()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Bytes(), sink.b) || !bytes.Equal(buffer.Bytes(), sink.b) {
			t.Fatalf("key %q: the container depends on whether its sink can Grow", key)
		}
		if _, err := ReadCheckpoint(bytes.NewReader(sink.b)); err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
	}
}

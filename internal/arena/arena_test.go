package arena

import (
	"testing"
	"unsafe"
)

func TestMakeSliceOnArena(t *testing.T) {
	a, err := New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	s := MakeSlice[float64](a, 4, 100)
	if len(s) != 4 || cap(s) != 100 {
		t.Fatalf("len/cap = %d/%d, want 4/100", len(s), cap(s))
	}
	for i := range s {
		if s[i] != 0 {
			t.Fatalf("arena slice not zeroed at %d", i)
		}
	}
	// The backing memory must be inside the mapping.
	base := uintptr(unsafe.Pointer(&a.mem[0]))
	p := uintptr(unsafe.Pointer(&s[0]))
	if p < base || p >= base+uintptr(len(a.mem)) {
		t.Fatal("MakeSlice returned memory outside the arena")
	}
	if a.Used() < 100*8 {
		t.Fatalf("Used() = %d after a 100-float64 allocation", a.Used())
	}
}

func TestMakeSliceHeapFallback(t *testing.T) {
	// nil arena: plain make semantics.
	s := MakeSlice[int32](nil, 3, 10)
	if len(s) != 3 || cap(s) != 10 {
		t.Fatalf("nil-arena len/cap = %d/%d", len(s), cap(s))
	}
	// Exhausted arena: same.
	a, err := New(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	big := MakeSlice[int64](a, 0, 10*pageSize)
	if cap(big) != 10*pageSize {
		t.Fatalf("fallback cap = %d", cap(big))
	}
}

func TestAppendGrowsThroughArena(t *testing.T) {
	a, err := New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var s []int32
	for i := int32(0); i < 1000; i++ {
		s = Append(a, s, i)
	}
	if len(s) != 1000 {
		t.Fatalf("len = %d", len(s))
	}
	for i, v := range s {
		if v != int32(i) {
			t.Fatalf("s[%d] = %d", i, v)
		}
	}
	base := uintptr(unsafe.Pointer(&a.mem[0]))
	p := uintptr(unsafe.Pointer(&s[0]))
	if p < base || p >= base+uintptr(len(a.mem)) {
		t.Fatal("Append growth did not land on the arena")
	}
}

func TestPointerTypeRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MakeSlice accepted a pointer-bearing element type")
		}
	}()
	type bad struct{ p *int }
	MakeSlice[bad](nil, 0, 1)
}

func TestAlignment(t *testing.T) {
	a, err := New(1 << 16)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	_ = MakeSlice[byte](a, 3, 3) // misalign the bump pointer
	s := MakeSlice[float64](a, 1, 1)
	if p := uintptr(unsafe.Pointer(&s[0])); p%8 != 0 {
		t.Fatalf("float64 slice misaligned: %#x", p)
	}
}

func TestCloseIdempotent(t *testing.T) {
	a, err := New(4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	var nilA *Arena
	if err := nilA.Close(); err != nil {
		t.Fatal(err)
	}
}

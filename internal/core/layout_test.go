package core

import (
	"reflect"
	"testing"
	"unsafe"

	"upcbh/internal/nbody"
)

// The byte-prefix constants in node.go encode struct layouts; these
// assertions fail loudly if a field is moved.
func TestBodyLayout(t *testing.T) {
	var b nbody.Body
	if off := unsafe.Offsetof(b.Pos); off != 0 {
		t.Errorf("Pos offset %d", off)
	}
	if off := unsafe.Offsetof(b.Mass); off != uintptr(bytesBodyPos) {
		t.Errorf("Mass offset %d, want %d", off, bytesBodyPos)
	}
	if off := unsafe.Offsetof(b.Cost); off != uintptr(bytesBodyMass) {
		t.Errorf("Cost offset %d, want %d", off, bytesBodyMass)
	}
	if off := unsafe.Offsetof(b.ID); off != uintptr(bytesBodyCost) {
		t.Errorf("ID offset %d, want %d", off, bytesBodyCost)
	}
	// The force write-back (Acc, Phi, Cost) must not overlap the
	// position/mass prefix concurrent readers fetch.
	if off := unsafe.Offsetof(b.Acc); off < uintptr(bytesBodyMass) {
		t.Errorf("Acc offset %d overlaps the read prefix", off)
	}
	if int(unsafe.Sizeof(b)) != bodyBytes {
		t.Errorf("Body size %d != bodyBytes %d", unsafe.Sizeof(b), bodyBytes)
	}
}

func TestCellLayout(t *testing.T) {
	var c Cell
	if off := unsafe.Offsetof(c.CofM); off != 0 {
		t.Errorf("CofM offset %d", off)
	}
	if off := unsafe.Offsetof(c.Cost); off+16 != uintptr(bytesAgg) {
		t.Errorf("Cost offset %d; bytesAgg %d should cover Cost+NSub+Done", off, bytesAgg)
	}
	if off := unsafe.Offsetof(c.Half); off >= uintptr(bytesCellAccept) {
		t.Errorf("Half offset %d outside acceptance prefix %d", off, bytesCellAccept)
	}
	if off := unsafe.Offsetof(c.Done); off >= uintptr(bytesAgg) {
		t.Errorf("Done offset %d outside aggregate prefix %d", off, bytesAgg)
	}
	if off := unsafe.Offsetof(c.Sub); int(off) >= cellBytes {
		t.Errorf("Sub offset %d outside cell size %d", off, cellBytes)
	}
}

// TestLocalTreeNodeLayout keeps the §5.3 local tree's node at 56 bytes
// and free of pointers: it is the simulator's largest per-body memory,
// and a pointer would make every node zeroed and scanned by the
// collector.
func TestLocalTreeNodeLayout(t *testing.T) {
	if size := unsafe.Sizeof(lnode{}); size > 56 {
		t.Errorf("lnode is %d bytes, want <= 56", size)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
			reflect.Func, reflect.Interface, reflect.String:
			t.Errorf("lnode%s is a %s: the node must hold no pointer", path, typ.Kind())
		case reflect.Array:
			walk(path+"[i]", typ.Elem())
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("", reflect.TypeFor[lnode]())
}

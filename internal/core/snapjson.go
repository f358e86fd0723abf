package core

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"upcbh/internal/nbody"
	"upcbh/internal/vec"
)

// AppendJSON appends the snapshot's JSON encoding to dst: byte for byte
// what encoding/json writes for a Snapshot (same keys in the same order,
// `bodies` omitted when empty, nil slices as null, Level and ExecMode
// through their own marshalers, floats in json's ES6-style format), with
// no reflection — a frame is 13 floats per body, and walking them through
// reflect once per reader was the largest cost of a streamed session
// (DESIGN.md §12.6). strconv.AppendFloat is the formatter encoding/json
// itself uses, so the digits cannot drift. A NaN or ±Inf anywhere is an
// error, as it is for json.Marshal; dst then comes back at its original
// length, so a caller never sends part of a frame.
//
// Snapshot deliberately does not implement json.Marshaler: encoding/json
// re-scans and compacts a Marshaler's output byte by byte, which costs
// more than the reflection it would save. Writers call AppendJSON.
func (s *Snapshot) AppendJSON(dst []byte) ([]byte, error) {
	e := snapEncoder{b: slices.Grow(dst, 512+24*len(s.Clocks)+144*len(s.StepPhases)+336*len(s.Bodies))}
	e.int(`{"step":`, s.Step)
	e.int(`,"steps":`, s.Steps)
	e.int(`,"warmup":`, s.Warmup)
	e.marshaler(`,"level":`, s.Level)
	e.marshaler(`,"exec_mode":`, s.ExecMode)
	e.int(`,"threads":`, s.Threads)
	e.string(`,"scenario":`, s.Scenario)
	e.float(`,"time":`, s.Time)
	e.floats(`,"clocks":`, s.Clocks)
	e.floats(`,"phases":`, s.Phases[:])
	e.b = append(e.b, `,"step_phases":`...)
	if s.StepPhases == nil {
		e.b = append(e.b, "null"...)
	} else {
		e.b = append(e.b, '[')
		k := s.rowText.copyPrefix(&e, s.StepPhases)
		for i := k; i < len(s.StepPhases); i++ {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.row(s.StepPhases[i], s.rowText.text)
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, `,"interactions":`...)
	e.b = strconv.AppendUint(e.b, s.Interactions, 10)
	if len(s.Bodies) > 0 {
		e.b = append(e.b, `,"bodies":[`...)
		for i := range s.Bodies {
			if i > 0 {
				e.b = append(e.b, ',')
			}
			e.body(&s.Bodies[i])
		}
		e.b = append(e.b, ']')
	}
	e.b = append(e.b, '}')
	if e.err != nil {
		return e.b[:len(dst)], e.err
	}
	return e.b, nil
}

// phaseText is the JSON of a Sim's step-phase rows, comma-separated, row
// k ending at ends[k]. Rows are formatted once, by the first AppendJSON
// that needs them — on the goroutine that encodes, never the one that
// steps the Sim — so mu orders the encoders that share the text.
type phaseText struct {
	mu     sync.Mutex
	b      []byte
	ends   []int
	failed bool // a row did not encode (a NaN): no text past it

	// testFormatHook, when set, runs once per row formatted as JSON; tests
	// use it to pin that a step's response formats only that step's row.
	testFormatHook func()
}

// rowText is one snapshot's view of its Sim's phaseTable: the rows as
// they stood when the snapshot was taken, and the table's shared text.
// The table only appends past the view's rows.
type rowText struct {
	rows []PhaseTimes
	text *phaseText
}

// copyPrefix appends the cached text of the longest prefix of rows that
// is bit-equal to the view's (bits, not ==: -0 == 0, but they encode
// differently), formatting into the cache whatever of it is not there
// yet, and returns that prefix's length.
func (v *rowText) copyPrefix(e *snapEncoder, rows []PhaseTimes) int {
	n := 0
	for n < min(len(rows), len(v.rows)) && sameBits(&rows[n], &v.rows[n]) {
		n++
	}
	if n == 0 {
		return 0
	}
	t := v.text
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := len(t.ends); k < n && !t.failed; k++ {
		te := snapEncoder{b: t.b}
		if k > 0 {
			te.b = append(te.b, ',')
		}
		te.row(v.rows[k], t)
		if t.failed = te.err != nil; !t.failed {
			t.b = te.b
			t.ends = append(t.ends, len(t.b))
		}
	}
	n = min(n, len(t.ends))
	if n > 0 {
		e.b = append(e.b, t.b[:t.ends[n-1]]...)
	}
	return n
}

func sameBits(a, b *PhaseTimes) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// snapEncoder is AppendJSON's output and its first error. Every method
// writes the literal key text it is handed, then the value.
type snapEncoder struct {
	b   []byte
	err error
}

func (e *snapEncoder) fail(err error) {
	if e.err == nil {
		e.err = fmt.Errorf("core: encode snapshot: %w", err)
	}
}

func (e *snapEncoder) int(key string, v int) {
	e.b = append(e.b, key...)
	e.b = strconv.AppendInt(e.b, int64(v), 10)
}

// marshaler writes a value through its own MarshalJSON. Level's and
// ExecMode's return one compact JSON string, which encoding/json's
// compaction pass leaves as it is.
func (e *snapEncoder) marshaler(key string, v json.Marshaler) {
	e.b = append(e.b, key...)
	b, err := v.MarshalJSON()
	if err != nil {
		e.fail(err)
	}
	e.b = append(e.b, b...)
}

// string writes s as encoding/json does. Printable ASCII without the
// characters json escapes — every scenario name — is copied between
// quotes; anything else goes through json.Marshal itself.
func (e *snapEncoder) string(key, s string) {
	e.b = append(e.b, key...)
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil {
				e.fail(err)
			}
			e.b = append(e.b, b...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

// number is encoding/json's float64 encoder: the shortest digits that
// round-trip, 'f' format except below 1e-6 and from 1e21 up, where it is
// 'e' with a one-digit negative exponent unpadded (e-09 → e-9).
func (e *snapEncoder) number(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		e.fail(fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64)))
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.b); n >= 4 && e.b[n-4] == 'e' && e.b[n-3] == '-' && e.b[n-2] == '0' {
			e.b[n-2] = e.b[n-1]
			e.b = e.b[:n-1]
		}
	}
}

// row writes one step-phase row; t (nil for a snapshot no Sim took)
// carries the test hook that counts formatted rows.
func (e *snapEncoder) row(r PhaseTimes, t *phaseText) {
	e.floats("", r[:])
	if t != nil && t.testFormatHook != nil {
		t.testFormatHook()
	}
}

func (e *snapEncoder) float(key string, f float64) {
	e.b = append(e.b, key...)
	e.number(f)
}

// floats writes a slice as json does: null when nil, else an array.
func (e *snapEncoder) floats(key string, fs []float64) {
	e.b = append(e.b, key...)
	if fs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.b = append(e.b, '[')
	for i, f := range fs {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.number(f)
	}
	e.b = append(e.b, ']')
}

func (e *snapEncoder) v3(key string, v vec.V3) {
	e.float(key, v.X)
	e.float(`,"Y":`, v.Y)
	e.float(`,"Z":`, v.Z)
	e.b = append(e.b, '}')
}

// body writes one nbody.Body: untagged, so its exported fields under
// their Go names in declaration order.
func (e *snapEncoder) body(b *nbody.Body) {
	e.v3(`{"Pos":{"X":`, b.Pos)
	e.float(`,"Mass":`, b.Mass)
	e.float(`,"Cost":`, b.Cost)
	e.int(`,"ID":`, int(b.ID))
	e.v3(`,"Vel":{"X":`, b.Vel)
	e.v3(`,"Acc":{"X":`, b.Acc)
	e.float(`,"Phi":`, b.Phi)
	e.b = append(e.b, '}')
}

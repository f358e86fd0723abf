package arena

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"upcbh/internal/durable"
)

// Checkpoint file format (DESIGN.md §12.2):
//
//	offset 0   magic    "UPCBHCKP" (8 bytes)
//	offset 8   version  uint32 LE
//	offset 12  hdrLen   uint32 LE
//	offset 16  header   hdrLen bytes of JSON (Header below)
//	           padding  zero bytes to the next 8-byte boundary
//	           payload  Header.PayloadLen bytes
//
// The payload is the concatenation of named regions, each starting at
// an 8-byte-aligned offset *relative to the payload start* (so the
// header's self-describing length cannot perturb region offsets), with
// zero padding between them. Header.CRC is CRC-32C (Castagnoli) over
// the entire payload including padding.
//
// WriteCheckpoint is the only writer; WriteFileCheckpoint streams it
// into an atomically published file.

// Magic identifies a checkpoint file.
const Magic = "UPCBHCKP"

// Version is the current layout version; readers reject anything else.
// Version 2 has version 1's byte layout: the bump marks a change to
// core.Options.Key() (one component removed), which no version-1
// container's key can match.
const Version = 2

// maxHeaderLen / maxPayloadLen bound what a reader will accept while
// parsing, so a corrupt length field cannot OOM the process. The
// payload bound is generous next to any realistic checkpoint (a
// million-body run captures on the order of 100 MB), and the reader
// additionally grows its buffer only as payload bytes actually arrive
// (readPayload), so a tiny crafted header advertising the maximum
// cannot force the allocation up front.
const (
	maxHeaderLen  = 1 << 20
	maxPayloadLen = 1 << 33
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Region names one contiguous byte range of the payload.
type Region struct {
	Name string `json:"name"`
	Off  int64  `json:"off"` // relative to payload start; 8-aligned
	Len  int64  `json:"len"`
}

// Header is the JSON header of a checkpoint: enough to identify what
// simulation state follows and to validate it before touching any of
// it.
type Header struct {
	Version    uint32          `json:"version"`
	Key        string          `json:"key"`  // core.Options.Key() of the checkpointed run
	Step       int             `json:"step"` // steps completed at checkpoint time
	Env        json.RawMessage `json:"env,omitempty"`
	Regions    []Region        `json:"regions"`
	PayloadLen int64           `json:"payload_len"`
	CRC        uint32          `json:"crc"` // CRC-32C over the payload
}

// NamedRegion is one region handed to a writer.
type NamedRegion struct {
	Name string
	Data []byte
}

// Checkpoint is a parsed, validated checkpoint.
type Checkpoint struct {
	Header  Header
	regions map[string][]byte
}

// Region returns the named payload region.
func (c *Checkpoint) Region(name string) ([]byte, bool) {
	b, ok := c.regions[name]
	return b, ok
}

const preambleLen = 16 // magic + version + hdrLen

// buildHeader lays the regions out in the payload and returns the
// finished header plus the encoded header JSON.
func buildHeader(key string, step int, env json.RawMessage, regions []NamedRegion) (Header, []byte, error) {
	h := Header{Version: Version, Key: key, Step: step, Env: env}
	var off int64
	for _, r := range regions {
		off = int64(roundUp(int(off), 8))
		h.Regions = append(h.Regions, Region{Name: r.Name, Off: off, Len: int64(len(r.Data))})
		off += int64(len(r.Data))
	}
	h.PayloadLen = off
	crc := crc32.New(crcTable)
	writePayload(crc, h.Regions, regions)
	h.CRC = crc.Sum32()
	hdr, err := json.Marshal(h)
	if err != nil {
		return Header{}, nil, fmt.Errorf("arena: encode checkpoint header: %w", err)
	}
	if len(hdr) > maxHeaderLen {
		return Header{}, nil, fmt.Errorf("arena: checkpoint header %d bytes exceeds limit %d", len(hdr), maxHeaderLen)
	}
	return h, hdr, nil
}

// writePayload streams regions with their alignment padding to w.
// w is a hasher or a real sink; both never error for our writers'
// destinations, so errors surface from the callers' final flush.
func writePayload(w io.Writer, layout []Region, regions []NamedRegion) {
	var pad [8]byte
	var off int64
	for i, r := range regions {
		if gap := layout[i].Off - off; gap > 0 {
			w.Write(pad[:gap])
			off += gap
		}
		w.Write(r.Data)
		off += int64(len(r.Data))
	}
}

// WriteCheckpoint serializes a checkpoint to w: memory buffers, HTTP
// responses, pipes, and (through WriteFileCheckpoint) files.
func WriteCheckpoint(w io.Writer, key string, step int, env json.RawMessage, regions []NamedRegion) error {
	h, hdr, err := buildHeader(key, step, env, regions)
	if err != nil {
		return err
	}
	// The container's length is known before its first byte is written. A
	// sink that can reserve room (a bytes.Buffer: every in-memory capture)
	// does so once, instead of doubling its way there and leaving the
	// smaller buffers behind as garbage.
	payloadOff := roundUp(preambleLen+len(hdr), 8)
	if g, ok := w.(interface{ Grow(n int) }); ok {
		g.Grow(payloadOff + int(h.PayloadLen))
	}
	pre := make([]byte, payloadOff)
	copy(pre, Magic)
	binary.LittleEndian.PutUint32(pre[8:], Version)
	binary.LittleEndian.PutUint32(pre[12:], uint32(len(hdr)))
	copy(pre[preambleLen:], hdr)
	if _, err := w.Write(pre); err != nil {
		return fmt.Errorf("arena: write checkpoint: %w", err)
	}
	cw := &countingWriter{w: w}
	writePayload(cw, h.Regions, regions)
	if cw.err != nil {
		return fmt.Errorf("arena: write checkpoint payload: %w", cw.err)
	}
	return nil
}

type countingWriter struct {
	w   io.Writer
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.err = err
	return n, err
}

// WriteFileCheckpoint streams the same container into a file at path
// through durable.Publish (temp file path+".tmp", fsync, rename,
// directory fsync): when it returns nil the complete container is durable
// at path, and a crash or disk failure at any earlier point leaves path
// absent or holding its previous complete contents.
func WriteFileCheckpoint(path, key string, step int, env json.RawMessage, regions []NamedRegion) error {
	err := durable.Publish(durable.OSFS, path+".tmp", path, func(w io.Writer) error {
		return WriteCheckpoint(w, key, step, env, regions)
	})
	if err != nil {
		return fmt.Errorf("arena: checkpoint %s: %w", path, err)
	}
	return nil
}

// readHeader parses and validates the preamble plus JSON header from
// r, leaving r positioned at the payload (header padding consumed).
func readHeader(r io.Reader) (Header, error) {
	var pre [preambleLen]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return Header{}, fmt.Errorf("arena: checkpoint truncated reading preamble: %w", err)
	}
	if string(pre[:8]) != Magic {
		return Header{}, fmt.Errorf("arena: not a checkpoint (bad magic %q)", pre[:8])
	}
	ver := binary.LittleEndian.Uint32(pre[8:12])
	if ver != Version {
		return Header{}, fmt.Errorf("arena: unsupported checkpoint version %d (this build reads version %d)", ver, Version)
	}
	hdrLen := binary.LittleEndian.Uint32(pre[12:16])
	if hdrLen == 0 || hdrLen > maxHeaderLen {
		return Header{}, fmt.Errorf("arena: implausible checkpoint header length %d", hdrLen)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Header{}, fmt.Errorf("arena: checkpoint truncated reading header: %w", err)
	}
	var h Header
	if err := json.Unmarshal(hdr, &h); err != nil {
		return Header{}, fmt.Errorf("arena: corrupt checkpoint header: %w", err)
	}
	if h.Version != ver {
		return Header{}, fmt.Errorf("arena: checkpoint header version %d disagrees with preamble %d", h.Version, ver)
	}
	if h.PayloadLen < 0 || h.PayloadLen > maxPayloadLen {
		return Header{}, fmt.Errorf("arena: implausible checkpoint payload length %d", h.PayloadLen)
	}
	if pad := roundUp(preambleLen+int(hdrLen), 8) - (preambleLen + int(hdrLen)); pad > 0 {
		if _, err := io.CopyN(io.Discard, r, int64(pad)); err != nil {
			return Header{}, fmt.Errorf("arena: checkpoint truncated reading header padding: %w", err)
		}
	}
	return h, nil
}

// ReadCheckpoint parses and validates a checkpoint from r: magic,
// version, header shape, region bounds, and payload CRC all checked
// before any region is handed to the caller. Corrupt or truncated
// input yields a descriptive error, never a panic.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	payload, err := readPayload(r, h.PayloadLen)
	if err != nil {
		return nil, err
	}
	if crc := crc32.Checksum(payload, crcTable); crc != h.CRC {
		return nil, fmt.Errorf("arena: checkpoint payload corrupt: CRC %08x, header says %08x", crc, h.CRC)
	}
	c := &Checkpoint{Header: h, regions: make(map[string][]byte, len(h.Regions))}
	for _, reg := range h.Regions {
		if reg.Off < 0 || reg.Len < 0 || reg.Off+reg.Len > h.PayloadLen {
			return nil, fmt.Errorf("arena: checkpoint region %q out of bounds (off %d len %d payload %d)",
				reg.Name, reg.Off, reg.Len, h.PayloadLen)
		}
		c.regions[reg.Name] = payload[reg.Off : reg.Off+reg.Len : reg.Off+reg.Len]
	}
	return c, nil
}

// readPayload reads exactly n payload bytes from r, doubling the buffer
// as bytes arrive rather than trusting the header's advertised length
// with one up-front allocation: memory committed never exceeds twice
// the bytes actually received, so a truncated or crafted stream fails
// at the size it transmitted, not the size it claimed.
func readPayload(r io.Reader, n int64) ([]byte, error) {
	const initialAlloc = 16 << 20
	capNow := n
	if capNow > initialAlloc {
		capNow = initialAlloc
	}
	payload := make([]byte, 0, capNow)
	for int64(len(payload)) < n {
		if len(payload) == cap(payload) {
			next := int64(cap(payload)) * 2
			if next > n {
				next = n
			}
			grown := make([]byte, len(payload), next)
			copy(grown, payload)
			payload = grown
		}
		prev := len(payload)
		payload = payload[:cap(payload)]
		if _, err := io.ReadFull(r, payload[prev:]); err != nil {
			return nil, fmt.Errorf("arena: checkpoint truncated reading payload (%d of %d bytes): %w", prev, n, err)
		}
	}
	return payload, nil
}

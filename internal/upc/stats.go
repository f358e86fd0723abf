package upc

import (
	"reflect"
	"unsafe"
)

// Stats counts the operations a thread performed; aggregated over threads
// they back the paper's in-text claims (message counts, gather source
// locality, etc.). Counters are owned by their thread and must only be
// aggregated after Run returns or at a barrier.
type Stats struct {
	Msgs        uint64
	Bytes       uint64
	RemoteGets  uint64
	RemotePuts  uint64
	LocalDerefs uint64
	GatherReqs  uint64
	// GatherSrcHist[k] counts aggregated gather requests that touched k
	// remote source threads (k>=8 buckets into the last slot).
	GatherSrcHist [9]uint64
	Barriers      uint64
	Collectives   uint64
	LockAcqs      uint64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Msgs += other.Msgs
	s.Bytes += other.Bytes
	s.RemoteGets += other.RemoteGets
	s.RemotePuts += other.RemotePuts
	s.LocalDerefs += other.LocalDerefs
	s.GatherReqs += other.GatherReqs
	for i := range s.GatherSrcHist {
		s.GatherSrcHist[i] += other.GatherSrcHist[i]
	}
	s.Barriers += other.Barriers
	s.Collectives += other.Collectives
	s.LockAcqs += other.LockAcqs
}

// Delta returns s - earlier, counter-wise; for phase-level profiling
// from two snapshots of one thread's counters.
func (s Stats) Delta(earlier Stats) Stats {
	d := s
	d.Msgs -= earlier.Msgs
	d.Bytes -= earlier.Bytes
	d.RemoteGets -= earlier.RemoteGets
	d.RemotePuts -= earlier.RemotePuts
	d.LocalDerefs -= earlier.LocalDerefs
	d.GatherReqs -= earlier.GatherReqs
	for i := range d.GatherSrcHist {
		d.GatherSrcHist[i] -= earlier.GatherSrcHist[i]
	}
	d.Barriers -= earlier.Barriers
	d.Collectives -= earlier.Collectives
	d.LockAcqs -= earlier.LockAcqs
	return d
}

// SingleSourceFraction returns the fraction of multi-cell gather requests
// that needed exactly one remote source thread (§5.5 reports >=93%).
func (s Stats) SingleSourceFraction() float64 {
	var total uint64
	for _, c := range s.GatherSrcHist[1:] {
		total += c
	}
	if total == 0 {
		return 1
	}
	return float64(s.GatherSrcHist[1]) / float64(total)
}

// TotalStats sums the per-thread counters. Only call after Run returns.
func (rt *Runtime) TotalStats() Stats {
	var agg Stats
	for _, t := range rt.threads {
		agg.Add(t.stats)
	}
	return agg
}

// intSizeof returns the in-memory size of v as an int.
func intSizeof[T any](v T) int { return int(unsafe.Sizeof(v)) }

// payloadBytes returns the wire size of a collective payload: for slices
// the elements it carries (len * elem size), not the 24-byte slice
// header unsafe.Sizeof would report; for everything else the in-memory
// size. Collectives run once per phase at most, so the reflection is off
// any hot path.
func payloadBytes[T any](v T) int {
	rv := reflect.ValueOf(&v).Elem()
	if rv.Kind() == reflect.Slice {
		return rv.Len() * int(rv.Type().Elem().Size())
	}
	return intSizeof(v)
}

// Command bhrun executes one Barnes-Hut simulation configuration and
// prints the per-phase simulated times, runtime statistics, and physics
// diagnostics.
//
// Example:
//
//	bhrun -n 16384 -threads 16 -level subspace -steps 4
//	bhrun -n 8192 -threads 8 -level baseline -pernode 4 -pthreads
//
// With -stream the run executes through the steppable session engine
// and emits one JSON snapshot per line on stdout (NDJSON) — the initial
// state, then one every -snap-every steps, carrying the step_phases rows
// of those steps only — instead of the report:
//
//	bhrun -n 4096 -threads 8 -steps 8 -stream -snap-every 2
//	bhrun -n 512 -steps 4 -stream -snap-bodies | jq .step
//
// With -checkpoint the run pauses at -checkpoint-at, writes the full
// paused state as one checkpoint container, and continues; -restore
// resumes a run from such a container (which carries the complete
// configuration) and produces byte-identical remaining output:
//
//	bhrun -n 16384 -threads 8 -steps 8 -checkpoint run.ckpt -checkpoint-at 4
//	bhrun -restore run.ckpt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"upcbh"
	"upcbh/internal/core"
)

// usageErr reports a flag-validation failure and exits with the
// conventional usage status.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bhrun: %s\n", fmt.Sprintf(format, args...))
	fmt.Fprintln(os.Stderr, "run 'bhrun -h' for usage")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func main() {
	var (
		n        = flag.Int("n", 16384, "number of bodies")
		threads  = flag.Int("threads", 8, "emulated UPC threads")
		levelS   = flag.String("level", "subspace", "optimization level: baseline|scalars|redistribute|cache|merged|async|subspace")
		modeS    = flag.String("mode", "simulate", "execution backend: simulate (modelled cluster time) | native (real parallel run, wall-clock time; -level cache and above)")
		scenS    = flag.String("scenario", "plummer", "workload scenario: plummer|two-plummer|uniform|clustered|disk")
		steps    = flag.Int("steps", 4, "time-steps to run")
		warmup   = flag.Int("warmup", 2, "warmup steps excluded from timing")
		theta    = flag.Float64("theta", 1.0, "opening criterion")
		eps      = flag.Float64("eps", 0.05, "softening")
		dt       = flag.Float64("dt", 0.025, "time-step length")
		seed     = flag.Uint64("seed", 123, "RNG seed")
		perNode  = flag.Int("pernode", 1, "threads per node")
		pthreads = flag.Bool("pthreads", false, "use the threaded (-pthreads) runtime model")
		noVec    = flag.Bool("novecreduce", false, "disable vector reductions (subspace level)")
		energy   = flag.Bool("energy", false, "report energy before/after (O(n^2): use modest n)")

		stream     = flag.Bool("stream", false, "steppable run: emit one JSON snapshot per line on stdout instead of the report")
		snapEvery  = flag.Int("snap-every", 1, "with -stream: steps between snapshots")
		snapBodies = flag.Bool("snap-bodies", false, "with -stream: include the full body state in each snapshot")

		ckptFile = flag.String("checkpoint", "", "write a checkpoint container to this file at step -checkpoint-at, then continue the run")
		ckptAt   = flag.Int("checkpoint-at", 0, "with -checkpoint: absolute step at which to capture (0 = the initial state)")
		restoreF = flag.String("restore", "", "resume from a checkpoint file; the container carries the full configuration, so the simulation-shape flags conflict")
	)
	flag.Parse()

	// Upfront validation: reject inconsistent invocations with a usage
	// error before any simulation state is built.
	if args := flag.Args(); len(args) > 0 {
		usageErr("unexpected arguments: %v", args)
	}
	if *n < 2 {
		usageErr("-n must be at least 2, got %d", *n)
	}
	if *threads < 1 {
		usageErr("-threads must be positive, got %d", *threads)
	}
	if *steps <= 0 {
		usageErr("-steps must be positive, got %d", *steps)
	}
	if *warmup < 0 {
		usageErr("-warmup must be non-negative, got %d", *warmup)
	}
	if *warmup >= *steps {
		usageErr("-warmup (%d) must be less than -steps (%d)", *warmup, *steps)
	}
	if !*stream {
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "snap-every", "snap-bodies":
				usageErr("-%s requires -stream", f.Name)
			}
		})
	}
	if *snapEvery <= 0 {
		usageErr("-snap-every must be positive, got %d", *snapEvery)
	}
	if *stream && *energy {
		usageErr("-energy cannot be combined with -stream (the snapshot stream owns stdout)")
	}
	if *restoreF != "" {
		// The checkpoint container carries the complete configuration; a
		// flag that would contradict it is a mistake, not an override.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "n", "threads", "level", "mode", "scenario", "steps", "warmup",
				"theta", "eps", "dt", "seed", "pernode", "pthreads", "novecreduce":
				usageErr("-%s conflicts with -restore (the checkpoint carries the configuration)", f.Name)
			case "energy":
				usageErr("-energy needs the initial conditions, which a restored run no longer has")
			}
		})
	}
	if *ckptFile == "" {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "checkpoint-at" {
				usageErr("-checkpoint-at requires -checkpoint")
			}
		})
	} else {
		if *stream {
			usageErr("-checkpoint cannot be combined with -stream (use the session service for that)")
		}
		if *ckptAt < 0 {
			usageErr("-checkpoint-at must be non-negative, got %d", *ckptAt)
		}
	}

	level, err := upcbh.ParseLevel(*levelS)
	if err != nil {
		usageErr("%v", err)
	}
	mode, err := upcbh.ParseExecMode(*modeS)
	if err != nil {
		usageErr("%v", err)
	}
	scenario, err := upcbh.ParseScenario(*scenS)
	if err != nil {
		usageErr("%v", err)
	}
	opts := upcbh.DefaultOptions(*n, *threads, level)
	opts.ExecMode = mode
	opts.Scenario = scenario.Name()
	opts.Steps, opts.Warmup = *steps, *warmup
	opts.Theta, opts.Eps, opts.Dt, opts.Seed = *theta, *eps, *dt, *seed
	opts.VectorReduce = !*noVec
	if m, err := upcbh.NewMachine(*threads, *perNode, *pthreads); err == nil {
		opts.Machine = m
	} else {
		usageErr("%v", err)
	}

	// Build the simulation: either fresh from the flags or resumed from a
	// checkpoint container, which carries the full configuration (the
	// restored Options replace the flag-derived ones everywhere below).
	var sim *upcbh.Sim
	if *restoreF != "" {
		f, err := os.Open(*restoreF)
		if err != nil {
			fatal(err)
		}
		sim, err = upcbh.Restore(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		opts = sim.Options()
		fmt.Fprintf(os.Stderr, "bhrun: resumed from %s at step %d of %d\n", *restoreF, sim.StepsDone(), opts.Steps)
	} else {
		var err error
		sim, err = upcbh.New(opts)
		if errors.Is(err, core.ErrInvalidOptions) {
			// Rejected before anything was built (e.g. -mode native below
			// -level cache): the invocation's mistake, not a run failure.
			usageErr("%v", err)
		} else if err != nil {
			fatal(err)
		}
	}

	if *stream {
		// A downstream close (`bhrun -stream | head -1`) surfaces as EPIPE
		// from the snapshot encoder: that is the consumer saying "enough",
		// not a failure — tear the session down and exit 0. SIGINT/SIGTERM
		// get the same clean teardown: runStream checks the signal channel
		// between steps, finishes the session, and returns nil.
		// The Go runtime re-raises SIGPIPE (killing the process with no
		// teardown) when a write to stdout gets EPIPE; ignore it so the
		// encoder surfaces the EPIPE as an error we can classify instead.
		signal.Ignore(syscall.SIGPIPE)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		if err := runStream(os.Stdout, sim, opts.Steps, *snapEvery, *snapBodies, sig); err != nil && !downstreamClosed(err) {
			fatal(err)
		}
		return
	}

	var e0kin, e0pot float64
	if *energy {
		ic, err := upcbh.GenerateScenario(opts.Scenario, opts.Bodies, opts.Seed)
		if err != nil {
			fatal(err)
		}
		e0kin, e0pot = upcbh.Energy(ic, opts.Eps)
	}

	if *ckptFile != "" {
		if *ckptAt > opts.Steps {
			usageErr("-checkpoint-at %d exceeds the %d-step schedule", *ckptAt, opts.Steps)
		}
		if *ckptAt < sim.StepsDone() {
			usageErr("-checkpoint-at %d is before the restored step %d", *ckptAt, sim.StepsDone())
		}
		if k := *ckptAt - sim.StepsDone(); k > 0 {
			if err := sim.Step(k); err != nil {
				fatal(err)
			}
		}
		if err := sim.CheckpointFile(*ckptFile); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bhrun: checkpoint written to %s at step %d\n", *ckptFile, sim.StepsDone())
	}

	res, err := sim.Run()
	if err != nil {
		fatal(err)
	}
	sim.Release()

	timeKind := "simulated"
	if opts.ExecMode == upcbh.ModeNative {
		timeKind = "wall-clock"
	}
	m := opts.Machine
	fmt.Printf("level=%s mode=%s scenario=%s bodies=%d threads=%d (per-node=%d pthreads=%v) steps=%d measured=%d\n",
		opts.Level, opts.ExecMode, opts.Scenario, opts.Bodies, m.Threads, m.ThreadsPerNode, m.Pthreads, opts.Steps, opts.Steps-opts.Warmup)
	fmt.Printf("times are %s seconds\n\n", timeKind)
	fmt.Printf("%-16s %12s %6s %12s %12s %10s\n", "phase", "t(s)", "%", "msgs", "MB", "locks")
	total := res.Total()
	for ph := upcbh.Phase(0); ph < upcbh.NumPhases; ph++ {
		if res.Phases[ph] == 0 && res.PhaseComm[ph].Msgs == 0 {
			continue
		}
		c := res.PhaseComm[ph]
		fmt.Printf("%-16s %12.6f %6.1f %12d %12.2f %10d\n",
			ph, res.Phases[ph], 100*res.Phases[ph]/total, c.Msgs, float64(c.Bytes)/1e6, c.LockAcqs)
	}
	fmt.Printf("%-16s %12.6f\n\n", "Total", total)

	st := res.Stats
	fmt.Printf("interactions (measured steps): %d\n", res.Interactions)
	fmt.Printf("messages: %d (%.1f MB), remote gets/puts: %d/%d, lock acquires: %d\n",
		st.Msgs, float64(st.Bytes)/1e6, st.RemoteGets, st.RemotePuts, st.LockAcqs)
	fmt.Printf("gather requests: %d (single-source fraction %.1f%%)\n",
		st.GatherReqs, 100*st.SingleSourceFraction())
	fmt.Printf("bodies migrated per step: %.2f%%, buffer compactions: %d\n",
		100*res.MigratedFraction, res.BufferCopies)

	if *energy {
		e1kin, e1pot := upcbh.Energy(res.Bodies, opts.Eps)
		e0, e1 := e0kin+e0pot, e1kin+e1pot
		fmt.Printf("\nenergy: initial %.6f (T=%.6f V=%.6f)  final %.6f  drift %.3g%%\n",
			e0, e0kin, e0pot, e1, 100*(e1-e0)/-e0)
	}
}

// downstreamClosed reports whether a stream write failed because the
// consumer went away (closed pipe / closed file): the conventional clean
// end of an NDJSON pipeline, not an error.
func downstreamClosed(err error) bool {
	return errors.Is(err, syscall.EPIPE) || errors.Is(err, os.ErrClosed)
}

// runStream drives the simulation through the steppable session engine,
// emitting one JSON snapshot per line on w: the current state first
// (step 0 for a fresh run, the captured step for a restored one), then
// one every `every` steps (the final interval truncated to the
// schedule). The first line carries the whole step-phase table, each
// later one the rows of its own steps, as bhserve's frames do. It
// returns errors instead of exiting, and it always tears the session
// down before returning — on success via Finish, on any early exit
// (write error, observer gone, signal) via the deferred Release, which
// finishes a still-paused session before recycling its storage. A
// signal on sig ends the stream cleanly (nil error) at the next step
// boundary.
func runStream(w io.Writer, sim *upcbh.Sim, steps, every int, withBodies bool, sig <-chan os.Signal) error {
	defer sim.Release()
	var (
		line   []byte       // one buffer for every snapshot's line
		bodies []upcbh.Body // and one for every snapshot's bodies
	)
	snapshot := sim.SnapshotMeta
	if withBodies {
		snapshot = func() (*upcbh.Snapshot, error) { return sim.SnapshotInto(bodies) }
	}
	emit := func(k int) error {
		snap, err := snapshot()
		if err != nil {
			return err
		}
		bodies = snap.Bodies
		snap.KeepSteps(k)
		if line, err = snap.AppendJSON(line[:0]); err != nil {
			return err
		}
		line = append(line, '\n')
		_, err = w.Write(line)
		return err
	}
	if err := emit(sim.StepsDone()); err != nil {
		return err
	}
loop:
	for sim.StepsDone() < steps {
		select {
		case <-sig:
			break loop
		default:
		}
		k := every
		if rem := steps - sim.StepsDone(); k > rem {
			k = rem
		}
		if err := sim.Step(k); err != nil {
			return err
		}
		if err := emit(k); err != nil {
			return err
		}
	}
	if _, err := sim.Finish(); err != nil {
		return err
	}
	return nil
}
